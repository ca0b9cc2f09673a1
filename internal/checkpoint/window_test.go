package checkpoint

import (
	"fmt"
	"testing"

	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
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

// TestRunWindowMatchesPerSystem proves the shared-batch window run produces,
// for every system, exactly the state a solo skip+warm+measure pass over a
// fresh trace would: the fan-out changes the schedule, never the stream.
func TestRunWindowMatchesPerSystem(t *testing.T) {
	tc := tracegen.PopsLike().Scaled(0.005)
	cfgs := []system.Config{
		testMachine(system.VR, tc.CPUs),
		testMachine(system.RRInclusion, tc.CPUs),
		testMachine(system.RRNoInclusion, tc.CPUs),
	}
	w := Window{Start: 6_000, End: 12_000, Warmup: 2_000}

	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		sys := build(t, cfg, tc)
		r := tracegen.MustNew(tc)
		// Skip: the prefix only walks the MMU, one record at a time.
		for n := uint64(0); n < w.Start-w.Warmup; {
			ref, err := r.Next()
			if err != nil {
				t.Fatalf("skip: n=%d err=%v", n, err)
			}
			if ref.Kind != trace.CtxSwitch {
				sys.MMU().Translate(ref.PID, ref.Addr)
				n++
			}
		}
		runRefs(t, sys, r, w.Warmup)
		sys.ResetStats()
		runRefs(t, sys, r, w.End-w.Start)
		sys.Drain()
		want[i] = windowSnapshot(sys)
	}

	systems := make([]*system.System, len(cfgs))
	for i, cfg := range cfgs {
		systems[i] = build(t, cfg, tc)
	}
	if err := RunWindow(systems, tracegen.MustNew(tc), w); err != nil {
		t.Fatal(err)
	}
	for i, sys := range systems {
		if got := windowSnapshot(sys); got != want[i] {
			t.Errorf("system %d diverged from its solo window run:\n got %s\nwant %s", i, got, want[i])
		}
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
	sys := build(t, testMachine(system.VR, tc.CPUs), tc)
	if err := RunWindow([]*system.System{sys}, tracegen.MustNew(tc), Window{Start: 0, End: 3_000, Warmup: 5_000}); err != nil {
		t.Fatal(err)
	}
	if sys.Refs() != 3_000 {
		t.Errorf("Refs = %d, want 3000", sys.Refs())
	}
	sys2 := build(t, testMachine(system.VR, tc.CPUs), tc)
	if err := RunWindow([]*system.System{sys2}, tracegen.MustNew(tc), Window{Start: 100, End: 100}); err != nil {
		t.Fatal(err)
	}
	if sys2.Refs() != 0 {
		t.Errorf("empty window simulated %d refs", sys2.Refs())
	}
}

// TestRunWindowPastEOF proves a window extending past the trace's end is a
// clean error, not a hang.
func TestRunWindowPastEOF(t *testing.T) {
	tc := tracegen.PopsLike().Scaled(0.002)
	sys := build(t, testMachine(system.VR, tc.CPUs), tc)
	err := RunWindow([]*system.System{sys}, tracegen.MustNew(tc), Window{Start: 0, End: 1 << 40})
	if err == nil {
		t.Fatal("window past EOF did not error")
	}
}
