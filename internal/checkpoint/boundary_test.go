package checkpoint

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// checkBoundaries is the checkpoint layer's differential harness. It runs
// tc once through a cold machine, capturing a checkpoint at its start, at
// k-1 record boundaries and at the end of the trace (before the write
// buffers drain), which cuts k windows. Then every window restarts from
// its first checkpoint: restore
// it into a fresh machine, position replay's trace at its cursor, run to
// the next boundary, and require the captured end state to encode byte
// for byte as that boundary's checkpoint. It returns the last window's
// machine, drained, which finishes the run exactly as System.Run would.
func checkBoundaries(cfg system.Config, tc tracegen.Config, k int, replay func() trace.Reader) (*system.System, error) {
	sig := signature(cfg, tc)
	newSys := func() (*system.System, error) {
		sys, err := system.New(cfg)
		if err != nil {
			return nil, err
		}
		return sys, tc.SetupSharedMappings(sys.MMU())
	}
	seq, err := newSys()
	if err != nil {
		return nil, err
	}
	r := &countingReader{r: tracegen.MustNew(tc)}
	checks := make([]*Checkpoint, k+1)
	for i := range checks {
		// Boundaries are cut in records at multiples of TotalRefs/k; a
		// trace has at least TotalRefs records, so the last window runs on
		// to the end.
		want := uint64(math.MaxUint64)
		if i < k {
			want = uint64(i)*uint64(tc.TotalRefs)/uint64(k) - r.n
		}
		if _, err := seq.RunRecords(r, want); err != nil {
			return nil, err
		}
		if checks[i], err = Capture(seq, sig, r.n); err != nil {
			return nil, err
		}
	}

	var sys *system.System
	for i, ck := range checks[:k] {
		if sys, err = newSys(); err != nil {
			return nil, err
		}
		if err := Restore(sys, ck, sig); err != nil {
			return nil, err
		}
		r := replay()
		if err := ResumeReader(r, ck.Cursor); err != nil {
			return nil, err
		}
		next := checks[i+1]
		if _, err := sys.RunRecords(r, next.Cursor-ck.Cursor); err != nil {
			return nil, err
		}
		got, err := Capture(sys, sig, next.Cursor)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got.Encode(), next.Encode()) {
			return nil, fmt.Errorf("window %d: end state diverges from the checkpoint at record %d", i, next.Cursor)
		}
	}
	sys.Drain()
	return sys, nil
}

// TestExactShardedMatchesSequential: every window restored from a
// checkpoint lands byte for byte on the next one, and the last window's
// full JSON report is the uninterrupted run's.
func TestExactShardedMatchesSequential(t *testing.T) {
	for _, org := range []system.Organization{system.VR, system.RRNoInclusion, system.VRRLT} {
		t.Run(org.String(), func(t *testing.T) {
			t.Parallel()
			cfg := testMachine(org, 2)
			tc := testWorkload(t, "pops", 0.01, 2)
			want := runUninterrupted(t, cfg, tc)
			sys, err := checkBoundaries(cfg, tc, 4, func() trace.Reader { return tracegen.MustNew(tc) })
			if err != nil {
				t.Fatal(err)
			}
			if got := reportJSON(t, sys, cfg); !bytes.Equal(want, got) {
				t.Errorf("report after the last window diverges:\nsequential:\n%s\nwindowed:\n%s", want, got)
			}
		})
	}
}

// TestExactShardedCatchesCorruption: the harness must notice a window that
// does not land on the next checkpoint. The replayed trace comes from
// another seed, which the signature cannot see.
func TestExactShardedCatchesCorruption(t *testing.T) {
	cfg := testMachine(system.VR, 1)
	tc := testWorkload(t, "pops", 0.005, 1)
	reseeded := tc
	reseeded.Seed++
	if _, err := checkBoundaries(cfg, tc, 2, func() trace.Reader { return tracegen.MustNew(reseeded) }); err == nil {
		t.Fatal("windows replayed from another trace passed the boundary check")
	}
}
