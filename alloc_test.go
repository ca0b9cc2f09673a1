package vrsim_test

// Allocation regression tests for the per-reference hot path. Once the
// machine is warm (pages faulted in, lines resident, write-buffer ring in
// steady state), applying a reference must not allocate at all — the sweep
// engine's throughput depends on it. Guarded paths: a first-level hit (the
// overwhelmingly common case), the V-miss/R-hit fill path with its victim
// choice and replacement, and the probe-nil check every emission site pays
// when observability is off.

import (
	"testing"

	vrsim "repro"
)

// allocMachine builds a small 1-CPU machine with no probe, no oracle and
// no invariant checking — the production configuration of the hot loop.
// Optional tweaks adjust the config before the build.
func allocMachine(t *testing.T, org vrsim.Organization, tweaks ...func(*vrsim.Config)) *vrsim.System {
	t.Helper()
	cfg := vrsim.Config{
		CPUs:         1,
		Organization: org,
		L1:           vrsim.Geometry{Size: 4 << 10, Block: 16, Assoc: 1},
		L2:           vrsim.Geometry{Size: 64 << 10, Block: 32, Assoc: 1},
	}
	for _, tw := range tweaks {
		tw(&cfg)
	}
	sys, err := vrsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustApply(t *testing.T, sys *vrsim.System, refs ...vrsim.Ref) {
	t.Helper()
	for _, r := range refs {
		if _, err := sys.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
}

func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Errorf("%s: %v allocs per reference, want 0", name, n)
	}
}

// TestWarmHitPathAllocationFree covers the first-level hit path — read,
// write and instruction fetch against a resident line — for all three
// organizations.
func TestWarmHitPathAllocationFree(t *testing.T) {
	orgs := []struct {
		name string
		org  vrsim.Organization
	}{
		{"VR", vrsim.VR},
		{"RRInclusion", vrsim.RRInclusion},
		{"RRNoInclusion", vrsim.RRNoInclusion},
		{"VRRLT", vrsim.VRRLT},
	}
	for _, o := range orgs {
		t.Run(o.name, func(t *testing.T) {
			sys := allocMachine(t, o.org)
			read := vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x2000}
			write := vrsim.Ref{CPU: 0, Kind: vrsim.Write, PID: 1, Addr: 0x2000}
			ifetch := vrsim.Ref{CPU: 0, Kind: vrsim.IFetch, PID: 1, Addr: 0x3000}
			mustApply(t, sys, read, write, ifetch) // fault pages in, fill lines
			requireZeroAllocs(t, "read hit", func() { mustApply(t, sys, read) })
			requireZeroAllocs(t, "write hit", func() { mustApply(t, sys, write) })
			requireZeroAllocs(t, "ifetch hit", func() { mustApply(t, sys, ifetch) })
		})
	}
}

// observedMachine builds a 1-CPU machine with the full observability stack
// armed the way a monitored production run carries it: a probe feeding a
// windowed-metrics collector from both the machine and its timed engine (a
// vrsimd job's wiring), latency histograms on the engine, and an auditor
// ticking with a period long enough that no audit fires inside the
// measured window (audits themselves snapshot and allocate — they are
// periodic by design, not per-reference). The window is as long, so none
// closes mid-measurement either.
func observedMachine(t *testing.T, org vrsim.Organization) (*vrsim.System, *vrsim.MetricWindows) {
	t.Helper()
	pr := vrsim.NewProbe()
	windows := vrsim.NewMetricWindows(1 << 40)
	pr.AddSink(windows)
	eng, err := vrsim.NewCycleEngine(vrsim.ContentionCycleParams(), pr)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetLatencies(vrsim.NewLatencies(1))
	sys, err := vrsim.New(vrsim.Config{
		CPUs:         1,
		Organization: org,
		L1:           vrsim.Geometry{Size: 4 << 10, Block: 16, Assoc: 1},
		L2:           vrsim.Geometry{Size: 64 << 10, Block: 32, Assoc: 1},
		Cycles:       eng,
		Audit:        vrsim.NewAuditor(1 << 40),
		Probe:        pr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, windows
}

// TestWarmHitPathWithHistogramsAllocationFree proves enabling latency
// histograms (fixed buckets, pre-sized per-CPU sets), arming the auditor and
// delivering events to a windowed-metrics sink keeps the warm hit and miss
// paths allocation-free: Record is branch-and-increment into fixed arrays,
// an idle auditor tick is one counter decrement, and Emit hands each event
// by value to the sink, which folds it into counters.
func TestWarmHitPathWithHistogramsAllocationFree(t *testing.T) {
	orgs := []struct {
		name string
		org  vrsim.Organization
	}{
		{"VR", vrsim.VR},
		{"RRInclusion", vrsim.RRInclusion},
		{"RRNoInclusion", vrsim.RRNoInclusion},
		{"VRRLT", vrsim.VRRLT},
	}
	for _, o := range orgs {
		t.Run(o.name, func(t *testing.T) {
			sys, windows := observedMachine(t, o.org)
			read := vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x2000}
			write := vrsim.Ref{CPU: 0, Kind: vrsim.Write, PID: 1, Addr: 0x2000}
			// L1-conflicting pair for the miss path (see below).
			a := vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x10000}
			b := vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x11000}
			mustApply(t, sys, read, write, a, b, a, b)
			requireZeroAllocs(t, "read hit + histograms", func() { mustApply(t, sys, read) })
			requireZeroAllocs(t, "write hit + histograms", func() { mustApply(t, sys, write) })
			requireZeroAllocs(t, "V-miss/R-hit + histograms", func() { mustApply(t, sys, a, b) })
			if eng := sys.Cycles(); eng.Latencies().Hist(0, vrsim.LatAccess).Count() == 0 {
				t.Fatal("histograms did not record despite being attached")
			}
			if w, open := windows.Pending(); !open || w.L1Hits == 0 || w.Cycles == 0 {
				t.Fatalf("window sink saw no hits or cycle charges: open %v, %+v", open, w)
			}
		})
	}
}

// TestWarmMissPathAllocationFree covers the V-miss/R-hit fill path: two
// addresses that collide in the direct-mapped first level but live in
// different second-level sets evict each other forever, so every reference
// is a first-level miss served by the second level — exercising victim
// choice, replacement, the r/v-pointer bookkeeping and (for the dirty
// variant) the write-back ring.
func TestWarmMissPathAllocationFree(t *testing.T) {
	orgs := []struct {
		name string
		org  vrsim.Organization
	}{
		{"VR", vrsim.VR},
		{"RRInclusion", vrsim.RRInclusion},
		{"RRNoInclusion", vrsim.RRNoInclusion},
		{"VRRLT", vrsim.VRRLT},
	}
	for _, o := range orgs {
		t.Run(o.name, func(t *testing.T) {
			sys := allocMachine(t, o.org)
			// Same L1 set (4K apart, 4K direct-mapped L1), different L2 sets.
			a := vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x10000}
			b := vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x11000}
			wa := a
			wa.Kind = vrsim.Write
			mustApply(t, sys, a, b, a, b) // fault in, settle both in L2
			requireZeroAllocs(t, "clean V-miss/R-hit", func() { mustApply(t, sys, a, b) })
			// Dirty the evicted line so each miss also pushes through the
			// write-back buffer.
			mustApply(t, sys, wa, b)
			requireZeroAllocs(t, "dirty V-miss/R-hit", func() { mustApply(t, sys, wa, b) })
		})
	}
}

// TestWarmSynonymMachineryAllocationFree pins the new synonym-strategy
// structures to the zero-alloc contract: with a victim cache armed, the
// steady-state conflict loop parks and takes an entry on every miss; with a
// deliberately tiny reverse-lookup table, every fill forces a table
// eviction (and the forced first-level eviction it implies).
func TestWarmSynonymMachineryAllocationFree(t *testing.T) {
	// Same direct-mapped L1 set, different L2 sets: every access misses L1.
	a := vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x10000}
	b := vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x11000}
	wa := a
	wa.Kind = vrsim.Write

	for _, o := range []struct {
		name string
		org  vrsim.Organization
	}{{"VR", vrsim.VR}, {"RRNoInclusion", vrsim.RRNoInclusion}, {"VRRLT", vrsim.VRRLT}} {
		t.Run(o.name+"/victim", func(t *testing.T) {
			sys := allocMachine(t, o.org, func(c *vrsim.Config) { c.VictimEntries = 4 })
			mustApply(t, sys, a, b, a, b, a, b) // reach park/take steady state
			requireZeroAllocs(t, "victim park+take", func() { mustApply(t, sys, a, b) })
			requireZeroAllocs(t, "dirty victim park+take", func() { mustApply(t, sys, wa, b) })
			if st := sys.Stats(0); st.VictimHits == 0 || st.VictimInserts == 0 {
				t.Fatalf("victim cache not exercised: hits %d inserts %d", st.VictimHits, st.VictimInserts)
			}
		})
	}

	t.Run("rlt-evict", func(t *testing.T) {
		// Two blocks in different L1 sets coexist in the first level, but a
		// one-entry table cannot hold both reverse translations: every fill
		// evicts the other's entry, forcing its (perfectly valid) line out
		// of the L1 — the strategy's capacity cost, on every reference.
		sys := allocMachine(t, vrsim.VRRLT, func(c *vrsim.Config) { c.RLTEntries = 1 })
		p := vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x10000}
		q := vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x10400}
		wp := p
		wp.Kind = vrsim.Write
		mustApply(t, sys, p, q, p, q)
		requireZeroAllocs(t, "rlt capacity eviction", func() { mustApply(t, sys, p, q) })
		requireZeroAllocs(t, "dirty rlt capacity eviction", func() { mustApply(t, sys, wp, q) })
		if st := sys.Stats(0); st.RLTEvictions == 0 {
			t.Fatal("one-entry RLT never evicted")
		}
	})
}
