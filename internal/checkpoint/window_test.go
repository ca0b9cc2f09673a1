package checkpoint

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/vm"
)

// windowSnapshot captures everything a probe pass reads from a system
// (scalar counters only — interval trackers are pointers whose addresses
// would always differ).
func windowSnapshot(sys *system.System) string {
	s := fmt.Sprintf("refs=%d agg=%+v coh=%v", sys.Refs(), sys.Aggregate(), sys.CoherenceMessages())
	for i := 0; i < sys.CPUs(); i++ {
		st := sys.Stats(i)
		s += fmt.Sprintf(" cpu%d{l1=%+v l2=%+v tlb=%+v wb=%d swapped=%d eager=%d incl=%d stalls=%d ctx=%d syn=%v coh=%d}",
			i, st.L1, st.L2, st.TLB, st.WriteBacks, st.SwappedWriteBacks,
			st.EagerFlushWriteBacks, st.InclusionInvals, st.BufferStalls,
			st.CtxSwitches, st.Synonyms, st.Coherence.Total())
	}
	return s
}

// readTrace generates tc's whole trace into memory.
func readTrace(t *testing.T, tc tracegen.Config) []trace.Ref {
	t.Helper()
	refs, err := trace.ReadAll(tracegen.MustNew(tc))
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// newPrefixes builds ws' Prefixes over refs in one walk from a fresh MMU
// holding tc's shared mappings: the state every machine that build
// assembles starts in.
func newPrefixes(t *testing.T, refs []trace.Ref, tc tracegen.Config, ws ...Window) []*Prefix {
	t.Helper()
	mmu := vm.MustNew(4096)
	if err := tc.SetupSharedMappings(mmu); err != nil {
		t.Fatal(err)
	}
	ps, err := NewPrefixes(refs, ws, mmu)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestRunWindowMatchesPerSystem proves that a window run from a shared
// prefix leaves every system, page tables included, exactly where a solo
// pass would: one that translates the skipped references through the
// system's own MMU, then warms and measures from a fresh trace. Both
// windows' prefixes come from one walk. The copied snapshot changes the
// schedule, never the state.
func TestRunWindowMatchesPerSystem(t *testing.T) {
	tc := tracegen.PopsLike().Scaled(0.005)
	rlt := testMachine(system.VRRLT, tc.CPUs)
	rlt.VictimEntries = 4
	cfgs := []system.Config{
		testMachine(system.VR, tc.CPUs),
		testMachine(system.RRInclusion, tc.CPUs),
		testMachine(system.RRNoInclusion, tc.CPUs),
		rlt,
	}
	refs := readTrace(t, tc)
	windows := []Window{
		{Start: 1_500, End: 4_000, Warmup: 2_000}, // warm-up clamped at the head
		{Start: 6_000, End: 12_000, Warmup: 2_000},
	}
	prefixes := newPrefixes(t, refs, tc, windows...)
	for k, w := range windows {
		t.Run(fmt.Sprintf("%d-%d", w.Start, w.End), func(t *testing.T) {
			warm := min(w.Warmup, w.Start)
			want := make([]string, len(cfgs))
			wantMMU := make([]vm.State, len(cfgs))
			for i, cfg := range cfgs {
				sys := build(t, cfg, tc)
				r := tracegen.MustNew(tc)
				// Skip: the prefix only walks the MMU, one record at a time.
				for n := uint64(0); n < w.Start-warm; {
					ref, err := r.Next()
					if err != nil {
						t.Fatalf("skip: n=%d err=%v", n, err)
					}
					if ref.Kind != trace.CtxSwitch {
						sys.MMU().Translate(ref.PID, ref.Addr)
						n++
					}
				}
				runRefs(t, sys, r, warm)
				sys.ResetStats()
				runRefs(t, sys, r, w.End-w.Start)
				sys.Drain()
				want[i] = windowSnapshot(sys)
				wantMMU[i] = sys.MMU().ExportState()
			}

			for i, cfg := range cfgs {
				sys := build(t, cfg, tc)
				if err := RunWindow(sys, prefixes[k]); err != nil {
					t.Fatal(err)
				}
				if got := windowSnapshot(sys); got != want[i] {
					t.Errorf("system %d diverged from its solo window run:\n got %s\nwant %s", i, got, want[i])
				}
				if got := sys.MMU().ExportState(); !reflect.DeepEqual(got, wantMMU[i]) {
					t.Errorf("system %d: page tables diverged from its solo window run's", i)
				}
			}
		})
	}
}

// runRefs applies records from r until n memory references have been
// applied; context switches are applied but not counted.
func runRefs(t *testing.T, sys *system.System, r trace.Reader, n uint64) {
	t.Helper()
	for done := uint64(0); done < n; {
		ref, err := r.Next()
		if err != nil {
			t.Fatalf("after %d of %d references: %v", done, n, err)
		}
		if _, err := sys.Apply(ref); err != nil {
			t.Fatal(err)
		}
		if ref.Kind != trace.CtxSwitch {
			done++
		}
	}
}

// TestRunWindowHeadClamp covers a window at the trace's head (warm-up
// clamped to Start) and a degenerate empty window.
func TestRunWindowHeadClamp(t *testing.T) {
	tc := tracegen.PopsLike().Scaled(0.002)
	refs := readTrace(t, tc)
	sys := build(t, testMachine(system.VR, tc.CPUs), tc)
	ps := newPrefixes(t, refs, tc, Window{Start: 0, End: 3_000, Warmup: 5_000}, Window{Start: 100, End: 100})
	if err := RunWindow(sys, ps[0]); err != nil {
		t.Fatal(err)
	}
	if sys.Refs() != 3_000 {
		t.Errorf("Refs = %d, want 3000", sys.Refs())
	}
	sys2 := build(t, testMachine(system.VR, tc.CPUs), tc)
	if err := RunWindow(sys2, ps[1]); err != nil {
		t.Fatal(err)
	}
	if sys2.Refs() != 0 {
		t.Errorf("empty window simulated %d refs", sys2.Refs())
	}
}

// TestRunWindowPastEOF proves a window extending past the end of the
// in-memory trace is a clean error, whether its measured part or its skip
// runs off the end.
func TestRunWindowPastEOF(t *testing.T) {
	tc := tracegen.PopsLike().Scaled(0.002)
	refs := readTrace(t, tc)
	for _, w := range []Window{
		{Start: 0, End: 1 << 40},
		{Start: 1 << 40, End: 1<<40 + 1},
	} {
		if _, err := NewPrefixes(refs, []Window{w}, vm.MustNew(4096)); err == nil {
			t.Errorf("window [%d, %d) past the end of a %d-record trace did not error", w.Start, w.End, len(refs))
		}
	}
}

// TestNewPrefixesOrder refuses windows whose warm-ups go backwards, which
// the single forward walk cannot snapshot, and takes windows that share a
// warm-up start.
func TestNewPrefixesOrder(t *testing.T) {
	tc := tracegen.PopsLike().Scaled(0.002)
	refs := readTrace(t, tc)
	back := []Window{{Start: 3_000, End: 3_500, Warmup: 500}, {Start: 2_000, End: 2_500, Warmup: 500}}
	if _, err := NewPrefixes(refs, back, vm.MustNew(4096)); err == nil {
		t.Error("windows whose warm-ups go backwards were accepted")
	}
	same := []Window{{Start: 500, End: 900, Warmup: 1_000}, {Start: 0, End: 300}}
	ps, err := NewPrefixes(refs, same, vm.MustNew(4096))
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].warm != 0 || ps[1].warm != 0 || ps[1].end <= ps[1].start {
		t.Errorf("warm-ups at records %d and %d, second window [%d, %d)", ps[0].warm, ps[1].warm, ps[1].start, ps[1].end)
	}
}

// TestRunWindowSharedPrefix runs two windows from one prefix on parallel
// goroutines: the prefix's snapshot must come out unchanged and the two
// systems identical. A system whose MMU cannot take the snapshot — built
// without the workload's shared mappings, or with another page size — is
// refused before it simulates anything.
func TestRunWindowSharedPrefix(t *testing.T) {
	tc := tracegen.PopsLike().Scaled(0.003)
	refs := readTrace(t, tc)
	cfg := testMachine(system.VR, tc.CPUs)
	p := newPrefixes(t, refs, tc, Window{Start: 5_000, End: 8_000, Warmup: 1_000})[0]
	before := p.mmu.ExportState()

	systems := []*system.System{build(t, cfg, tc), build(t, cfg, tc)}
	errs := make([]error, len(systems))
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = RunWindow(sys, p)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(p.mmu.ExportState(), before) {
		t.Error("running windows changed the shared snapshot")
	}
	if a, b := windowSnapshot(systems[0]), windowSnapshot(systems[1]); a != b {
		t.Errorf("systems run from one prefix differ:\n%s\n%s", a, b)
	}
	if a, b := systems[0].MMU().ExportState(), systems[1].MMU().ExportState(); !reflect.DeepEqual(a, b) {
		t.Error("systems run from one prefix hold different page tables")
	}

	bare := system.MustNew(cfg) // no shared mappings
	if err := RunWindow(bare, p); err == nil {
		t.Error("a system built without the shared mappings ran from the prefix")
	}
	if bare.Refs() != 0 || bare.MMU().FramesInUse() != 0 {
		t.Error("a refused system was simulated")
	}

	// With no shared mappings anywhere, the base states agree and only the
	// page size tells the MMUs apart.
	plains, err := NewPrefixes(refs, []Window{{Start: 2_000, End: 3_000}}, vm.MustNew(4096))
	if err != nil {
		t.Fatal(err)
	}
	plain := plains[0]
	bigPages := cfg
	bigPages.PageSize = 8192
	big := system.MustNew(bigPages)
	if err := big.MMU().CopyFrom(plain.mmu); err == nil {
		t.Error("CopyFrom took a 4096-byte-page snapshot into an 8192-byte-page MMU")
	}
	if err := RunWindow(big, plain); err == nil {
		t.Error("an 8192-byte-page system ran from a 4096-byte-page prefix")
	}
}
