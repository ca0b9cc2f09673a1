package system

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// The cross-organization differential harness. Every cache organization is
// a different implementation of the same architectural contract: loads
// return the newest store to the same physical address. So for one trace,
// every organization must produce (a) the identical per-reference token
// stream and (b) the identical final memory image once the hierarchy's
// dirty state is folded down over memory. The victim cache and the
// reverse-lookup synonym table are timing/organization artifacts and must
// not change either.

// orgVariant is one point in the organization matrix.
type orgVariant struct {
	name         string
	org          Organization
	writeThrough bool
	victim       int
	rltEntries   int
}

func orgMatrix() []orgVariant {
	return []orgVariant{
		{name: "vr", org: VR},
		{name: "vr+vc", org: VR, victim: 4},
		{name: "vr-wt", org: VR, writeThrough: true},
		{name: "vr-wt+vc", org: VR, writeThrough: true, victim: 4},
		{name: "rlt", org: VRRLT, rltEntries: 16},
		{name: "rlt+vc", org: VRRLT, rltEntries: 16, victim: 4},
		{name: "rr", org: RRInclusion},
		{name: "rr+vc", org: RRInclusion, victim: 4},
		{name: "rr-wt", org: RRInclusion, writeThrough: true},
		{name: "rrnoincl", org: RRNoInclusion},
		{name: "rrnoincl+vc", org: RRNoInclusion, victim: 4},
	}
}

// diffConfig builds a deliberately small machine so the scaled-down traces
// still churn through evictions, synonyms and write-backs.
func diffConfig(tc tracegen.Config, v orgVariant) Config {
	return Config{
		CPUs:           tc.CPUs,
		Organization:   v.org,
		PageSize:       tc.PageSize,
		L1:             cache.Geometry{Size: 1 << 10, Block: 16, Assoc: 2},
		L2:             cache.Geometry{Size: 8 << 10, Block: 32, Assoc: 2},
		L1WriteThrough: v.writeThrough,
		VictimEntries:  v.victim,
		RLTEntries:     v.rltEntries,
		CheckOracle:    true,
	}
}

// genRefs materializes one scaled preset trace so every variant replays
// byte-identical input.
func genRefs(t *testing.T, tc tracegen.Config) []trace.Ref {
	t.Helper()
	gen, err := tracegen.New(tc)
	if err != nil {
		t.Fatal(err)
	}
	var refs []trace.Ref
	buf := make([]trace.Ref, 4096)
	for {
		n, err := trace.FillBatch(gen, buf)
		refs = append(refs, buf[:n]...)
		if err != nil {
			return refs
		}
	}
}

// refRecord is one reference's architecturally visible outcome.
type refRecord struct {
	pa    uint64
	token uint64
}

// runVariant replays refs through one organization, returning the
// per-reference outcome stream and the machine (drained, post-run).
func runVariant(t *testing.T, tc tracegen.Config, v orgVariant, refs []trace.Ref) ([]refRecord, *System) {
	t.Helper()
	sys, err := New(diffConfig(tc, v))
	if err != nil {
		t.Fatalf("%s: %v", v.name, err)
	}
	if err := tc.SetupSharedMappings(sys.MMU()); err != nil {
		t.Fatalf("%s: %v", v.name, err)
	}
	out := make([]refRecord, 0, len(refs))
	for i, ref := range refs {
		res, err := sys.Apply(ref)
		if err != nil {
			t.Fatalf("%s: ref %d: %v", v.name, i, err)
		}
		if res.CtxSwitch {
			out = append(out, refRecord{})
			continue
		}
		out = append(out, refRecord{pa: uint64(res.PA), token: res.Token})
		// Structural invariants are O(cache) per call, so sample them
		// rather than paying the walk on every reference.
		if i%1021 == 0 {
			if vs := sys.AuditSnapshot().Check(); len(vs) != 0 {
				t.Fatalf("%s: ref %d: audit violations: %v", v.name, i, vs)
			}
		}
	}
	sys.Drain()
	if vs := sys.AuditSnapshot().Check(); len(vs) != 0 {
		t.Fatalf("%s: audit violations after drain: %v", v.name, vs[0])
	}
	return out, sys
}

// finalImage folds the drained hierarchy's dirty state down over memory:
// a first-level dirty copy is the newest value, then a dirty second-level
// subentry, then memory. The domain is the set of addresses the run ever
// wrote (the oracle's keys), at L1-block granularity.
func finalImage(t *testing.T, sys *System) map[uint64]uint64 {
	t.Helper()
	img := make(map[uint64]uint64)
	snap := sys.AuditSnapshot()
	for _, cs := range snap.CPUs {
		if len(cs.WriteBuffer) != 0 {
			t.Fatalf("cpu %d: write buffer not empty after drain", cs.CPU)
		}
		type vk struct{ c, set, way int }
		vtok := make(map[vk]uint64)
		vdirty := make(map[vk]bool)
		for _, vcs := range cs.VCaches {
			for _, l := range vcs.Lines {
				k := vk{vcs.Cache, l.Set, l.Way}
				vtok[k] = l.Token
				vdirty[k] = l.Dirty
			}
		}
		for _, rl := range cs.RLines {
			for _, sub := range rl.Subs {
				pa := rl.Addr + uint64(sub.Sub)*cs.L1Block
				k := vk{sub.VCache, sub.VSet, sub.VWay}
				switch {
				case sub.Inclusion && vdirty[k]:
					img[pa] = vtok[k]
				case sub.RDirty:
					if _, dirtier := img[pa]; !dirtier {
						img[pa] = sub.Token
					}
				}
			}
		}
		// The no-inclusion baseline's L1 holds dirty blocks that may not
		// be in L2 at all; where both levels are dirty, L1 is newer.
		for _, l1 := range cs.L1Lines {
			if l1.Dirty {
				img[l1.Addr] = l1.Token
			}
		}
	}
	for pa := range sys.oracle {
		if _, ok := img[uint64(pa)]; !ok {
			img[uint64(pa)] = sys.mem.Peek(pa)
		}
	}
	return img
}

// TestDifferentialOrganizations replays the three paper workloads, at one,
// two and four CPUs, through every organization variant and demands the
// per-reference token stream and the final memory image match the V-R
// baseline exactly.
func TestDifferentialOrganizations(t *testing.T) {
	scale := 0.002
	if testing.Short() {
		scale = 0.0005
	}
	for _, preset := range tracegen.Presets() {
		for _, cpus := range []int{1, 2, 4} {
			tc := preset.Scaled(scale)
			tc.CPUs = cpus
			name := fmt.Sprintf("%s/cpus=%d", tc.Name, cpus)
			t.Run(name, func(t *testing.T) {
				refs := genRefs(t, tc)
				if len(refs) == 0 {
					t.Fatal("empty trace")
				}
				base, baseSys := runVariant(t, tc, orgMatrix()[0], refs)
				baseImg := finalImage(t, baseSys)
				checkImageMatchesOracle(t, "vr", baseSys, baseImg)
				for _, v := range orgMatrix()[1:] {
					got, sys := runVariant(t, tc, v, refs)
					for i := range base {
						if got[i] != base[i] {
							t.Fatalf("%s: ref %d (%v): got pa=%#x token=%d, vr baseline pa=%#x token=%d",
								v.name, i, refs[i], got[i].pa, got[i].token, base[i].pa, base[i].token)
						}
					}
					img := finalImage(t, sys)
					checkImageMatchesOracle(t, v.name, sys, img)
					if len(img) != len(baseImg) {
						t.Fatalf("%s: final image has %d blocks, vr baseline %d", v.name, len(img), len(baseImg))
					}
					for pa, tok := range baseImg {
						if img[pa] != tok {
							t.Fatalf("%s: final image at pa %#x: token %d, vr baseline %d", v.name, pa, img[pa], tok)
						}
					}
				}
			})
		}
	}
}

// checkImageMatchesOracle verifies the folded-down image agrees with the
// sequential-consistency oracle: every written block ends holding its
// newest store, no matter which level it was parked in.
func checkImageMatchesOracle(t *testing.T, name string, sys *System, img map[uint64]uint64) {
	t.Helper()
	if len(sys.oracle) == 0 {
		t.Fatalf("%s: oracle empty — trace generated no writes", name)
	}
	for pa, want := range sys.oracle {
		if got := img[uint64(pa)]; got != want {
			t.Fatalf("%s: pa %#x: final image token %d, oracle %d", name, uint64(pa), got, want)
		}
	}
	for pa := range img {
		if _, ok := sys.oracle[addr.PAddr(pa)]; !ok {
			// A dirty block the oracle never saw written cannot exist.
			t.Fatalf("%s: image holds pa %#x the oracle never recorded", name, pa)
		}
	}
}

// TestDifferentialVictimActuallyUsed guards the harness itself: if the
// victim-cache variants never hit the victim cache, the matrix is not
// exercising the new machinery.
func TestDifferentialVictimActuallyUsed(t *testing.T) {
	tc := tracegen.AbaqusLike().Scaled(0.002)
	refs := genRefs(t, tc)
	for _, v := range []orgVariant{
		{name: "vr+vc", org: VR, victim: 4},
		{name: "rrnoincl+vc", org: RRNoInclusion, victim: 4},
		{name: "rlt+vc", org: VRRLT, rltEntries: 16, victim: 4},
	} {
		_, sys := runVariant(t, tc, v, refs)
		var hits, inserts uint64
		for c := 0; c < sys.CPUs(); c++ {
			hits += sys.Stats(c).VictimHits
			inserts += sys.Stats(c).VictimInserts
		}
		if inserts == 0 {
			t.Errorf("%s: victim cache never filled", v.name)
		}
		if hits == 0 {
			t.Errorf("%s: victim cache never hit", v.name)
		}
	}
}

// TestDifferentialRLTActuallyEvicts guards the RLT variant the same way:
// the 16-entry table must be under capacity pressure, or the reciprocity
// invariant is only tested in the trivial regime.
func TestDifferentialRLTActuallyEvicts(t *testing.T) {
	tc := tracegen.AbaqusLike().Scaled(0.002)
	refs := genRefs(t, tc)
	_, sys := runVariant(t, tc, orgVariant{name: "rlt", org: VRRLT, rltEntries: 16}, refs)
	var ev uint64
	for c := 0; c < sys.CPUs(); c++ {
		ev += sys.Stats(c).RLTEvictions
	}
	if ev == 0 {
		t.Error("16-entry RLT under a 64-line L1 never evicted")
	}
}
