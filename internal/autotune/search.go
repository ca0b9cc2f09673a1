package autotune

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/cycles"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/vm"
)

// Options configures a search.
type Options struct {
	Grammar  Grammar
	Workload tracegen.Config // deterministic, regenerable trace
	Params   cycles.Params   // zero value selects cycles.DefaultParams

	// ProbeRefs is the total number of measured references per candidate
	// in the probe pass, split across Shards windows spread evenly over
	// the trace. Default: an eighth of the workload.
	ProbeRefs uint64
	// Shards is the number of probe windows per candidate (default 4).
	Shards int
	// Warmup is the simulated-but-discarded prefix before each window
	// (default 4096 references).
	Warmup uint64
	// Parallel bounds the worker goroutines (default GOMAXPROCS).
	Parallel int
	// Margin is the pruning safety margin in cycles of Tacc: a candidate
	// is pruned only when a no-larger candidate beats its probe Tacc by
	// more than the margin. 0 selects an automatic margin (10% of the
	// probe pass's Tacc spread, floored at 0.1 cycles to absorb windowing
	// noise on near-indistinguishable candidates); negative disables the
	// margin entirely
	// (aggressive pruning — sound only if the probe were exact).
	Margin float64
	// Exhaustive skips the probe pass and pruning: every candidate is
	// measured exactly. The reference for soundness checks.
	Exhaustive bool
}

// Point is one measured candidate on (or behind) the frontier.
type Point struct {
	Label     string  `json:"label"`
	Bits      uint64  `json:"bits"`
	Tacc      float64 `json:"tacc"`
	ProbeTacc float64 `json:"probeTacc,omitempty"`
}

// Result is a search's outcome. Frontier is the Pareto-optimal set over
// (Bits, Tacc), sorted by rising Bits; identical searches produce
// byte-identical results regardless of Parallel.
type Result struct {
	Workload   string  `json:"workload"`
	Candidates int     `json:"candidates"`
	Pruned     int     `json:"pruned"`
	Survivors  int     `json:"survivors"`
	Margin     float64 `json:"margin"`
	// ProbeErrSpread is max(probe-exact) - min(probe-exact) over the
	// survivors: the part of the windowing error that does NOT cancel in
	// the pairwise comparisons pruning makes. The systematic bias shared
	// by every candidate (probe windows sample a different trace region
	// than the full run) cancels and is deliberately excluded.
	ProbeErrSpread float64 `json:"probeErrSpread"`
	// MarginSound reports Margin >= ProbeErrSpread — the sufficient
	// condition for pruning not to have changed the frontier (DESIGN.md
	// §15).
	MarginSound bool    `json:"marginSound"`
	Frontier    []Point `json:"frontier"`
	Explored    []Point `json:"explored"` // every exactly measured candidate, sorted like Frontier
}

func (o *Options) applyDefaults() {
	if o.Params == (cycles.Params{}) {
		o.Params = cycles.DefaultParams()
	}
	if o.ProbeRefs == 0 {
		o.ProbeRefs = uint64(o.Workload.TotalRefs) / 8
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Warmup == 0 {
		o.Warmup = 4096
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
}

// timing is one candidate's accumulated cycle measurement.
type timing struct{ clock, refs uint64 }

func (t timing) tacc() float64 {
	if t.refs == 0 {
		return 0
	}
	return float64(t.clock) / float64(t.refs)
}

// engineTotals sums an engine's per-agent clocks and completed references
// (agents with no references contribute nothing, as in Engine.Tacc).
func engineTotals(e *cycles.Engine) timing {
	var t timing
	for id := 0; id < e.Agents(); id++ {
		a := e.Agent(id)
		if a.Refs == 0 {
			continue
		}
		t.clock += a.Clock
		t.refs += a.Refs
	}
	return t
}

// buildSystem assembles one candidate with a fresh cycle engine and the
// workload's shared mappings installed.
func buildSystem(c Candidate, wl tracegen.Config, p cycles.Params) (*system.System, *cycles.Engine, error) {
	eng, err := cycles.New(p, nil)
	if err != nil {
		return nil, nil, err
	}
	cfg := c.Config
	cfg.Cycles = eng
	sys, err := system.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", c.Label, err)
	}
	if err := wl.SetupSharedMappings(sys.MMU()); err != nil {
		return nil, nil, err
	}
	return sys, eng, nil
}

// Search explores the grammar: probe, prune, then measure the survivors
// exactly. See the package comment for the architecture and DESIGN.md §15
// for the soundness argument.
func Search(o Options) (*Result, error) {
	o.applyDefaults()
	wl := o.Workload
	if wl.PageSize == 0 {
		wl.PageSize = 4096
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	cands, err := o.Grammar.Expand(wl.CPUs, wl.PageSize)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("autotune: the grammar expands to no legal candidates")
	}

	// One generation per search, into a slice sized for the whole trace:
	// every probe cell and exact run reads it, and nothing writes it after
	// this line. It costs 16 bytes a record (DESIGN.md §15).
	refs, err := trace.AppendAll(make([]trace.Ref, 0, wl.MaxRecords()), tracegen.MustNew(wl))
	if err != nil {
		return nil, err
	}

	res := &Result{Workload: wl.Signature(), Candidates: len(cands)}
	survivors := make([]int, 0, len(cands))
	probe := make([]timing, len(cands))

	if o.Exhaustive {
		for i := range cands {
			survivors = append(survivors, i)
		}
	} else {
		if err := probePass(o, wl, refs, cands, probe); err != nil {
			return nil, err
		}
		res.Margin = o.Margin
		if res.Margin == 0 {
			res.Margin = autoMargin(probe)
		}
		if res.Margin < 0 {
			res.Margin = 0
		}
		survivors = prune(cands, probe, res.Margin)
		res.Pruned = len(cands) - len(survivors)
	}
	res.Survivors = len(survivors)

	exact, err := exactPass(o, wl, refs, cands, survivors)
	if err != nil {
		return nil, err
	}

	res.Explored = make([]Point, len(survivors))
	errLo, errHi := math.Inf(1), math.Inf(-1)
	for j, i := range survivors {
		res.Explored[j] = Point{
			Label: cands[i].Label,
			Bits:  cands[i].Bits,
			Tacc:  exact[j].tacc(),
		}
		if !o.Exhaustive {
			res.Explored[j].ProbeTacc = probe[i].tacc()
			d := res.Explored[j].ProbeTacc - res.Explored[j].Tacc
			errLo, errHi = math.Min(errLo, d), math.Max(errHi, d)
		}
	}
	if !o.Exhaustive && errHi > errLo {
		res.ProbeErrSpread = errHi - errLo
	}
	sortPoints(res.Explored)
	res.Frontier = frontier(res.Explored)
	res.MarginSound = o.Exhaustive || res.Margin >= res.ProbeErrSpread
	return res, nil
}

// probePass measures every candidate approximately: Shards windows spread
// over the trace, each preceded by a warm-up, one (candidate, shard) cell
// per job. One MMU walks the trace once and is copied at each window's
// warm-up into the checkpoint.Prefix every cell of that shard starts from.
// Results land in per-candidate accumulators; integer addition makes the
// totals order-independent.
func probePass(o Options, wl tracegen.Config, refs []trace.Ref, cands []Candidate, acc []timing) error {
	total := uint64(wl.TotalRefs)
	shards := o.Shards
	winLen := o.ProbeRefs / uint64(shards)
	if winLen == 0 {
		winLen = 1
	}
	windows := make([]checkpoint.Window, shards)
	for s := range windows {
		start := uint64(s) * total / uint64(shards)
		end := start + winLen
		if limit := uint64(s+1) * total / uint64(shards); end > limit {
			end = limit
		}
		windows[s] = checkpoint.Window{Start: start, End: end, Warmup: o.Warmup}
	}
	// The walk starts as every candidate's MMU does in buildSystem.
	mmu, err := vm.New(wl.PageSize)
	if err != nil {
		return err
	}
	if err := wl.SetupSharedMappings(mmu); err != nil {
		return err
	}
	prefixes, err := checkpoint.NewPrefixes(refs, windows, mmu)
	if err != nil {
		return fmt.Errorf("probe windows: %w", err)
	}
	// One (candidate, shard) timing per slot, each written by one cell.
	shardRes := make([]timing, len(cands)*shards)
	err = sweep.Parallel(len(shardRes), o.Parallel, func(cell int) error {
		i, s := cell/shards, cell%shards
		sys, eng, err := buildSystem(cands[i], wl, o.Params)
		if err != nil {
			return err
		}
		if err := checkpoint.RunWindow(sys, prefixes[s]); err != nil {
			return fmt.Errorf("probe of %s, shard %d: %w", cands[i].Label, s, err)
		}
		shardRes[cell] = engineTotals(eng)
		return nil
	})
	if err != nil {
		return err
	}
	for i := range acc {
		for _, t := range shardRes[i*shards : (i+1)*shards] {
			acc[i].clock += t.clock
			acc[i].refs += t.refs
		}
	}
	return nil
}

// autoMarginFloor is the absolute floor of the automatic margin, in cycles
// of Tacc. Windowed probes carry sampling error on this scale even when the
// candidates themselves are nearly indistinguishable, so a margin derived
// from the candidate spread alone would prune on noise.
const autoMarginFloor = 0.1

// autoMargin is the automatic pruning margin: a tenth of the probe pass's
// Tacc spread, floored at autoMarginFloor — wide enough to absorb windowing
// error on every workload we measured while still pruning the deep interior
// of the space.
func autoMargin(probe []timing) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, t := range probe {
		v := t.tacc()
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := autoMarginFloor
	if hi > lo && (hi-lo)/10 > m {
		m = (hi - lo) / 10
	}
	return m
}

// prune drops candidates dominated by more than the margin: candidate i
// survives unless some candidate with no more SRAM bits has a probe Tacc
// more than margin below i's. Group minima over equal-Bits classes and a
// prefix minimum over rising Bits make the outcome independent of sort
// stability and scheduling.
func prune(cands []Candidate, probe []timing, margin float64) []int {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if cands[ia].Bits != cands[ib].Bits {
			return cands[ia].Bits < cands[ib].Bits
		}
		return cands[ia].Label < cands[ib].Label
	})

	var survivors []int
	prefixMin := math.Inf(1)
	for g := 0; g < len(order); {
		// One equal-Bits group: [g, h).
		h := g
		groupMin := math.Inf(1)
		for ; h < len(order) && cands[order[h]].Bits == cands[order[g]].Bits; h++ {
			groupMin = math.Min(groupMin, probe[order[h]].tacc())
		}
		prefixMin = math.Min(prefixMin, groupMin)
		for ; g < h; g++ {
			if probe[order[g]].tacc() <= prefixMin+margin {
				survivors = append(survivors, order[g])
			}
		}
	}
	sort.Ints(survivors)
	return survivors
}

// exactPass measures each surviving candidate on every record of refs, one
// candidate per job.
func exactPass(o Options, wl tracegen.Config, refs []trace.Ref, cands []Candidate, survivors []int) ([]timing, error) {
	out := make([]timing, len(survivors))
	err := sweep.Parallel(len(survivors), o.Parallel, func(j int) error {
		sys, eng, err := buildSystem(cands[survivors[j]], wl, o.Params)
		if err != nil {
			return err
		}
		if err := sys.ApplyBatch(refs); err != nil {
			return fmt.Errorf("exact run of %s: %w", cands[survivors[j]].Label, err)
		}
		sys.Drain()
		out[j] = engineTotals(eng)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sortPoints orders points by (Bits, Tacc, Label) — the canonical order of
// every emitted list.
func sortPoints(pts []Point) {
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].Bits != pts[b].Bits {
			return pts[a].Bits < pts[b].Bits
		}
		if pts[a].Tacc != pts[b].Tacc {
			return pts[a].Tacc < pts[b].Tacc
		}
		return pts[a].Label < pts[b].Label
	})
}

// frontier extracts the Pareto staircase from points already in canonical
// order: a point joins if its Tacc strictly beats every cheaper-or-equal
// point's.
func frontier(pts []Point) []Point {
	var out []Point
	best := math.Inf(1)
	for _, p := range pts {
		if p.Tacc < best {
			out = append(out, p)
			best = p.Tacc
		}
	}
	if out == nil {
		out = []Point{}
	}
	return out
}
