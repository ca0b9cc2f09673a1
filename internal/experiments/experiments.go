// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a named runner that drives the synthetic
// workloads through the simulator and prints the same rows or series the
// paper reports. A scale factor shrinks the traces proportionally for quick
// runs; scale 1.0 reproduces the full published trace lengths.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cache"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, scale float64) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: number of writes due to procedure calls (pops)", Table1},
		{"table2", "Table 2: inter-write intervals, write-through L1 (pops snapshot)", Table2},
		{"table3", "Table 3: inter-write intervals, write-back + swapped write-back", Table3},
		{"table5", "Table 5: characteristics of traces", Table5},
		{"table6", "Table 6: hit ratios of V-R and R-R hierarchies", Table6},
		{"table7", "Table 7: hit ratios for small first-level caches", Table7},
		{"fig4", "Figure 4: average access time vs R-cache slow-down (thor)", Fig4},
		{"fig5", "Figure 5: average access time vs R-cache slow-down (pops)", Fig5},
		{"fig6", "Figure 6: average access time vs R-cache slow-down (abaqus)", Fig6},
		{"timedthor", "Section 4, measured: analytic vs cycle-measured Tacc under bus contention (thor)", TimedThor},
		{"timedpops", "Section 4, measured: analytic vs cycle-measured Tacc under bus contention (pops)", TimedPops},
		{"timedabaqus", "Section 4, measured: analytic vs cycle-measured Tacc under bus contention (abaqus)", TimedAbaqus},
		{"timedhist", "Section 4, measured: latency distributions under bus contention (pops)", TimedHist},
		{"table8", "Table 8: split vs unified level-1 hit ratios (thor)", Table8},
		{"table9", "Table 9: split vs unified level-1 hit ratios (pops)", Table9},
		{"table10", "Table 10: split vs unified level-1 hit ratios (abaqus)", Table10},
		{"table11", "Table 11: coherence messages to the first-level cache (pops)", Table11},
		{"table12", "Table 12: coherence messages to the first-level cache (thor)", Table12},
		{"table13", "Table 13: coherence messages to the first-level cache (abaqus)", Table13},
		{"inclusion", "Section 2: inclusion invalidations with a 2-way 16K V-cache (pops)", InclusionInvalidations},
		{"assoc", "Section 2: associativity lower bound for strict inclusion", AssocBound},
		{"assocbound", "Section 2: the bound validated empirically (pops)", AssocBoundEmpirical},
		{"wbdepth", "Ablation: write-buffer depth vs stalls (pops)", WriteBufferDepth},
		{"eagerflush", "Ablation: swapped-valid lazy flush vs eager flush (abaqus)", EagerFlush},
		{"pidtags", "Ablation: lazy flush vs eager flush vs PID-tagged V-cache (abaqus)", PIDTags},
		{"protocol", "Extension: write-invalidate vs write-update coherence (pops)", UpdateProtocol},
		{"replacement", "Ablation: relaxed vs naive L2 victim selection (pops)", RelaxedReplacement},
		{"writepolicy", "Section 2: write-through vs write-back first level (pops)", WritePolicy},
		{"synonym", "Extension: synonym strategies — v-pointer vs reverse-lookup table vs victim cache (pops)", SynonymStrategy},
		{"scaling", "Future work: shielding factor vs CPU count (pops)", Scaling},
		{"bandwidth", "Motivation: bus occupancy per organization (pops)", Bandwidth},
		{"assocsweep", "Sensitivity: associativity beyond the paper's direct-mapped caches (pops)", AssocSweep},
		{"pagesize", "Sensitivity: page size and the synonym resolution mix (pops)", PageSize},
		{"tlb", "Section 4: TLB pressure, V-R vs R-R (pops)", TLBPressure},
		{"attr", "Telemetry: cycle attribution by mechanism, V-R vs R-R (pops)", Attribution},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists all experiment ids, sorted.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// sizePair is one first-level/second-level configuration column of the
// paper's tables.
type sizePair struct {
	label  string
	l1, l2 uint64
}

// The paper's main columns (Table 6, 8-13): B1 = 16, B2 = 32,
// direct-mapped at both levels.
func mainSizePairs() []sizePair {
	return []sizePair{
		{"4K/64K", 4 << 10, 64 << 10},
		{"8K/128K", 8 << 10, 128 << 10},
		{"16K/256K", 16 << 10, 256 << 10},
	}
}

// Table 7's small first-level columns.
func smallSizePairs() []sizePair {
	return []sizePair{
		{".5K/64K", 512, 64 << 10},
		{"1K/128K", 1 << 10, 128 << 10},
		{"2K/256K", 2 << 10, 256 << 10},
	}
}

// machineConfig builds the standard direct-mapped machine for a trace and
// size pair.
func machineConfig(tc tracegen.Config, p sizePair, org system.Organization) system.Config {
	return system.Config{
		CPUs:         tc.CPUs,
		Organization: org,
		PageSize:     tc.PageSize,
		L1:           cache.Geometry{Size: p.l1, Block: 16, Assoc: 1},
		L2:           cache.Geometry{Size: p.l2, Block: 32, Assoc: 1},
	}
}

// runWorkload drives a synthetic workload through a machine and returns
// the machine for inspection.
func runWorkload(tc tracegen.Config, sc system.Config) (*system.System, *tracegen.Generator, error) {
	sys, err := system.New(sc)
	if err != nil {
		return nil, nil, err
	}
	if err := tc.SetupSharedMappings(sys.MMU()); err != nil {
		return nil, nil, err
	}
	gen, err := tracegen.New(tc)
	if err != nil {
		return nil, nil, err
	}
	if err := sys.Run(gen); err != nil {
		return nil, nil, err
	}
	return sys, gen, nil
}

// useSweep selects the engine behind runSweep: the single-pass sweep engine
// (default) or the reference per-configuration sequential loop. The
// determinism test flips it to prove both produce byte-identical output.
var useSweep = true

// runSweep drives one synthetic workload through every machine
// configuration in scs. With the sweep engine, the trace is generated once
// and broadcast to all systems, each simulating in its own goroutine; the
// fallback regenerates and re-runs the workload per configuration. The
// returned systems parallel scs.
func runSweep(tc tracegen.Config, scs []system.Config) ([]*system.System, error) {
	systems := make([]*system.System, len(scs))
	for i, sc := range scs {
		sys, err := system.New(sc)
		if err != nil {
			return nil, err
		}
		if err := tc.SetupSharedMappings(sys.MMU()); err != nil {
			return nil, err
		}
		systems[i] = sys
	}
	if !useSweep {
		for _, sys := range systems {
			gen, err := tracegen.New(tc)
			if err != nil {
				return nil, err
			}
			if err := sys.Run(gen); err != nil {
				return nil, err
			}
		}
		return systems, nil
	}
	gen, err := tracegen.New(tc)
	if err != nil {
		return nil, err
	}
	if err := sweep.Run(gen, systems, sweep.Options{}); err != nil {
		return nil, err
	}
	return systems, nil
}

// runLimited is runWorkload but stops after n references (the paper's
// "snapshot" tables).
func runLimited(tc tracegen.Config, sc system.Config, n int) (*system.System, error) {
	sys, err := system.New(sc)
	if err != nil {
		return nil, err
	}
	if err := tc.SetupSharedMappings(sys.MMU()); err != nil {
		return nil, err
	}
	gen, err := tracegen.New(tc)
	if err != nil {
		return nil, err
	}
	if err := sys.Run(trace.NewLimit(gen, n)); err != nil {
		return nil, err
	}
	return sys, nil
}

// scaled applies the run's scale factor to a preset.
func scaled(tc tracegen.Config, scale float64) tracegen.Config {
	if scale <= 0 || scale == 1 {
		return tc
	}
	return tc.Scaled(scale)
}
