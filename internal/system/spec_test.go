package system

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
)

// fuzzInput hands out fuzz data a byte at a time, then zeros.
type fuzzInput []byte

func (in *fuzzInput) next() uint8 {
	if len(*in) == 0 {
		return 0
	}
	v := (*in)[0]
	*in = (*in)[1:]
	return v
}

// pow2 draws 2^(lo + v%n), or for one byte value in sixteen a neighbouring
// non-power of two.
func (in *fuzzInput) pow2(lo, n uint8) uint64 {
	v := in.next()
	x := uint64(1) << (lo + v%n)
	if v >= 240 {
		x += 3
	}
	return x
}

// small draws a knob in [-2, 13]; 0 selects the default.
func (in *fuzzInput) small() int { return int(in.next()%16) - 2 }

// fuzzConfig maps fuzz data to a machine of at most 64K per level. The
// draws lean towards legal machines, so most rule violations come one or
// two at a time.
func fuzzConfig(data []byte) (Config, int64) {
	in := fuzzInput(data)
	c := Config{
		CPUs:         int(in.next() % 4), // 0 selects the default of 1
		Organization: Organization(in.next() % 5),
		PageSize:     [8]uint64{0, 4096, 256, 1024, 0, 4096, 256, 1000}[in.next()%8],
		L1:           cache.Geometry{Size: in.pow2(4, 13), Block: in.pow2(2, 5), Assoc: int(in.pow2(0, 4))},
		Split:        in.next()%4 == 0,
	}
	c.L2 = cache.Geometry{Size: in.pow2(6, 11), Block: c.L1.Block << (in.next() % 3), Assoc: int(in.pow2(0, 4))}
	if in.next()%16 == 15 {
		c.L2.Block = c.L1.Block / 2
	}
	if v := in.next(); v != 0 {
		c.TLBEntries = 1 << (v % 8)
	}
	if v := in.next(); v != 0 {
		c.TLBAssoc = 1 << (v % 4)
	}
	c.WriteBufDepth, c.VictimEntries = in.small(), in.small()
	if v := in.next(); v%4 == 3 {
		c.RLTEntries = int(v/4%40) - 2
	}
	if v := in.next(); v%4 == 3 {
		c.RLTAssoc = int(v/4%10) - 1
	}
	flags := in.next()
	c.PIDTagged = flags&3 == 1
	c.EagerCtxFlush = flags&12 == 4
	c.L1WriteThrough = flags&48 == 16
	c.Protocol = core.Protocol(flags >> 6)
	return c, int64(in.next())<<8 | int64(in.next())
}

// FuzzConfigValidate holds Validate to New over bounded random machines:
// Validate accepts exactly the configs New builds, and every accepted
// machine runs a short generated workload — context switches,
// cross-process and same-process synonyms, several CPUs — under the online
// auditor and the data oracle without a violation or a panic.
func FuzzConfigValidate(f *testing.F) {
	// A 4K/64K V-R machine; a split write-through V-R machine with a victim
	// cache on two CPUs; the RLT organization with an 8-entry table; and an
	// L2 no larger than its L1.
	f.Add([]byte{0, 0, 1, 8, 2, 0, 1, 10, 1, 0, 0, 6, 1, 3, 2, 0, 0, 0, 0, 1})
	f.Add([]byte{2, 0, 2, 6, 2, 1, 0, 8, 1, 1, 0, 4, 2, 5, 6, 0, 0, 16, 0, 2})
	f.Add([]byte{1, 3, 1, 6, 2, 0, 1, 8, 1, 0, 0, 6, 1, 3, 2, 43, 0, 0, 0, 3})
	f.Add([]byte{0, 1, 1, 10, 2, 0, 1, 8, 1, 0, 0, 6, 1, 3, 2, 0, 0, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, seed := fuzzConfig(data)
		cfg.CheckOracle, cfg.Audit = true, audit.New(100)
		verr := cfg.Validate()
		sys, err := New(cfg)
		if (verr == nil) != (err == nil) {
			t.Fatalf("Validate says %v, New says %v\n%+v", verr, err, cfg)
		}
		if err != nil {
			return
		}

		// Synonyms: one two-page segment mapped at different addresses in
		// processes 1 and 2, and twice into process 1.
		page := sys.MMU().PageGeom().Size()
		seg := sys.MMU().NewSegment(2 * page)
		for _, m := range []struct {
			pid  addr.PID
			base uint64
		}{{1, 0}, {2, 2 * page}, {1, 8 * page}} {
			if err := sys.MMU().MapShared(m.pid, addr.VAddr(m.base), seg); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		refs := make([]trace.Ref, 300)
		for i := range refs {
			refs[i] = trace.Ref{
				CPU:  uint8(rng.Intn(sys.CPUs())),
				Kind: trace.Kind(rng.Intn(3)),
				PID:  addr.PID(1 + rng.Intn(3)),
				Addr: addr.VAddr(rng.Intn(int(12*page)) &^ 3),
			}
			if rng.Intn(25) == 0 {
				refs[i].Kind = trace.CtxSwitch
			}
		}
		if err := sys.Run(trace.NewSliceReader(refs)); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		aud := sys.Auditor()
		aud.Audit(sys)
		if aud.Total() != 0 {
			t.Fatalf("%+v: %d violations, first %v", cfg, aud.Total(), aud.Violations()[0])
		}
	})
}
