package experiments

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/cycles"
	"repro/internal/system"
	"repro/internal/timemodel"
	"repro/internal/tracegen"
)

// timedOrgs are the organizations every timed test sweeps.
var timedOrgs = []system.Organization{system.VR, system.RRInclusion, system.RRNoInclusion}

// runTimed drives one preset (with the given CPU count) through each
// organization with a cycle engine attached, returning the engines and
// systems in org order.
func runTimed(t *testing.T, tc tracegen.Config, cpus int, cp cycles.Params) ([]*cycles.Engine, []*system.System) {
	t.Helper()
	tc = tc.Scaled(testScale)
	tc.CPUs = cpus
	p := mainSizePairs()[2]
	engines := make([]*cycles.Engine, len(timedOrgs))
	scs := make([]system.Config, len(timedOrgs))
	for i, org := range timedOrgs {
		engines[i] = cycles.MustNew(cp, nil)
		scs[i] = machineConfig(tc, p, org)
		scs[i].Cycles = engines[i]
	}
	systems, err := runSweep(tc, scs)
	if err != nil {
		t.Fatal(err)
	}
	return engines, systems
}

// TestMeasuredMatchesAnalytic is the differential acceptance criterion: with
// one CPU, no bus occupancy and no contention, the engine is charging
// exactly one t1/t2/tm term per reference, so its measured average must
// equal the Section 4 closed form evaluated on the run's own hit ratios —
// for every preset and every organization, to float rounding.
func TestMeasuredMatchesAnalytic(t *testing.T) {
	presets := []tracegen.Config{
		tracegen.PopsLike(), tracegen.ThorLike(), tracegen.AbaqusLike(),
	}
	for _, tc := range presets {
		engines, systems := runTimed(t, tc, 1, cycles.DefaultParams())
		for i, org := range timedOrgs {
			agg := systems[i].Aggregate()
			mp := timemodel.DefaultParams(agg.H1, agg.H2)
			analytic := timemodel.AccessTime(mp)
			measured := engines[i].Tacc()
			if diff := math.Abs(measured - analytic); diff > 1e-9 {
				t.Errorf("%s/%s: measured %.12f vs analytic %.12f (diff %g)",
					tc.Name, org, measured, analytic, diff)
			}
			// RRAccessTime with zero slow-down is the same equation; the
			// measured time must agree with it too.
			if diff := math.Abs(measured - timemodel.RRAccessTime(mp, 0)); diff > 1e-9 {
				t.Errorf("%s/%s: measured %.12f vs RR analytic %.12f",
					tc.Name, org, measured, timemodel.RRAccessTime(mp, 0))
			}
		}
	}
}

// TestTaccMonotoneInLatencies is the property the engine's arithmetic
// guarantees: every clock is a composition of max and + over non-negative
// terms, so the measured Tacc is monotonically non-decreasing in the memory
// latency, in the bus occupancies, and in switching contention on.
func TestTaccMonotoneInLatencies(t *testing.T) {
	base := cycles.ContentionParams()

	slower := base
	slower.TM *= 2
	busier := base
	busier.BusMemOcc *= 2
	busier.BusWBOcc *= 2
	quiet := base
	quiet.Contention = false

	tc := tracegen.PopsLike()
	baseEng, _ := runTimed(t, tc, 4, base)
	slowEng, _ := runTimed(t, tc, 4, slower)
	busyEng, _ := runTimed(t, tc, 4, busier)
	quietEng, _ := runTimed(t, tc, 4, quiet)

	for i, org := range timedOrgs {
		b := baseEng[i].Tacc()
		if s := slowEng[i].Tacc(); s < b {
			t.Errorf("%s: doubling tm lowered Tacc: %.4f -> %.4f", org, b, s)
		}
		if u := busyEng[i].Tacc(); u < b {
			t.Errorf("%s: doubling bus occupancy lowered Tacc: %.4f -> %.4f", org, b, u)
		}
		if q := quietEng[i].Tacc(); q > b {
			t.Errorf("%s: disabling contention raised Tacc: %.4f -> %.4f", org, q, b)
		}
	}
}

// TestTaccMonotoneInCPUCount adds processors to the same shared bus and
// requires the measured access time never to improve — and, the acceptance
// criterion, the 4-CPU machine to be strictly slower than the 1-CPU machine
// under contention.
func TestTaccMonotoneInCPUCount(t *testing.T) {
	cp := cycles.ContentionParams()
	tc := tracegen.PopsLike()
	taccs := make(map[int][]float64)
	for _, n := range []int{1, 2, 4} {
		engines, _ := runTimed(t, tc, n, cp)
		for _, e := range engines {
			taccs[n] = append(taccs[n], e.Tacc())
		}
	}
	for i, org := range timedOrgs {
		if taccs[2][i] < taccs[1][i] || taccs[4][i] < taccs[2][i] {
			t.Errorf("%s: Tacc not monotone in CPU count: 1->%.4f 2->%.4f 4->%.4f",
				org, taccs[1][i], taccs[2][i], taccs[4][i])
		}
		if taccs[4][i] <= taccs[1][i] {
			t.Errorf("%s: 4-CPU Tacc %.4f not strictly above 1-CPU %.4f under contention",
				org, taccs[4][i], taccs[1][i])
		}
	}
}

// TestClocksNeverRunBackwards applies the trace one reference at a time and
// samples every agent clock along the way: simulation time only moves
// forward.
func TestClocksNeverRunBackwards(t *testing.T) {
	tc := tracegen.PopsLike().Scaled(testScale)
	eng := cycles.MustNew(cycles.ContentionParams(), nil)
	sc := machineConfig(tc, mainSizePairs()[2], system.VR)
	sc.Cycles = eng
	sys, err := system.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.SetupSharedMappings(sys.MMU()); err != nil {
		t.Fatal(err)
	}
	gen, err := tracegen.New(tc)
	if err != nil {
		t.Fatal(err)
	}
	last := make([]uint64, tc.CPUs)
	for {
		ref, err := gen.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Apply(ref); err != nil {
			t.Fatal(err)
		}
		for cpu := 0; cpu < tc.CPUs; cpu++ {
			if c := eng.Agent(cpu).Clock; c < last[cpu] {
				t.Fatalf("cpu %d clock ran backwards: %d -> %d", cpu, last[cpu], c)
			} else {
				last[cpu] = c
			}
		}
	}
	for cpu := 0; cpu < tc.CPUs; cpu++ {
		at := eng.Agent(cpu)
		if at.Clock != at.Breakdown.Total() {
			t.Errorf("cpu %d: clock %d != breakdown total %d", cpu, at.Clock, at.Breakdown.Total())
		}
	}
}

// TestTimedSweepDeterminism pins the timed experiments' output: byte-
// identical across repeated sweep runs, and byte-identical between the
// sweep engine and the sequential reference loop. Timing measurements ride
// the same reference-serial order as the functional counters, so the sweep
// engine's fan-out must not perturb them.
func TestTimedSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every timed experiment three times")
	}
	defer func() { useSweep = true }()
	for _, id := range []string{"timedpops", "timedthor", "timedabaqus"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(id, func(t *testing.T) {
			var first, second, seq bytes.Buffer
			useSweep = true
			if err := e.Run(&first, testScale); err != nil {
				t.Fatalf("sweep run 1: %v", err)
			}
			if err := e.Run(&second, testScale); err != nil {
				t.Fatalf("sweep run 2: %v", err)
			}
			useSweep = false
			if err := e.Run(&seq, testScale); err != nil {
				t.Fatalf("sequential: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("sweep output differs between identical runs\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					first.String(), second.String())
			}
			if !bytes.Equal(first.Bytes(), seq.Bytes()) {
				t.Errorf("output differs between sweep and sequential engines\n--- sweep ---\n%s\n--- sequential ---\n%s",
					first.String(), seq.String())
			}
		})
	}
}
