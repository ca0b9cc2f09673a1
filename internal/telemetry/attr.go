package telemetry

import (
	"fmt"
	"io"

	"repro/internal/cycles"
	"repro/internal/monitor"
	"repro/internal/probe"
)

// Mechanism identifies one sink of measured access cycles. The first three
// split the engine's service charge (one term per reference) by the level
// that satisfied it; the rest mirror the engine's non-service charges.
type Mechanism int

// Mechanisms, in report order.
const (
	MechL1Service Mechanism = iota
	MechL2Service
	MechMemoryService
	MechTLBMiss
	MechBusWait
	MechWBStall
	MechCtxSwitch
	NumMechanisms
)

var mechNames = [NumMechanisms]string{
	MechL1Service:     "l1-service",
	MechL2Service:     "l2-service",
	MechMemoryService: "memory-service",
	MechTLBMiss:       "tlb-miss",
	MechBusWait:       "bus-wait",
	MechWBStall:       "wb-stall",
	MechCtxSwitch:     "ctx-switch",
}

// String returns the mechanism's stable report name.
func (m Mechanism) String() string {
	if m >= 0 && m < NumMechanisms {
		return mechNames[m]
	}
	return fmt.Sprintf("Mechanism(%d)", int(m))
}

// serviceLevel returns the level that an access event of kind k says will
// satisfy its CPU's in-flight reference (1: first level, 2: second level,
// 3: memory), or 0 for a kind that says nothing about it.
func serviceLevel(k probe.Kind) int {
	switch k {
	case probe.EvL1Hit:
		return 1
	case probe.EvL1Miss, probe.EvL2Hit:
		return 2
	case probe.EvL2Miss:
		return 3
	}
	return 0
}

// mechanismOf returns the mechanism a timing charge of kind k (a kind whose
// IsTiming holds) belongs to. The service charge splits by level, the
// serviceLevel of the charging CPU's in-flight reference.
func mechanismOf(k probe.Kind, level int) Mechanism {
	switch k {
	case probe.EvTimeTLBMiss:
		return MechTLBMiss
	case probe.EvTimeBusWait:
		return MechBusWait
	case probe.EvTimeWBStall:
		return MechWBStall
	case probe.EvTimeCtxSwitch:
		return MechCtxSwitch
	}
	switch level {
	case 3:
		return MechMemoryService
	case 2:
		return MechL2Service
	}
	return MechL1Service
}

// AttrConfig configures the attribution profiler.
type AttrConfig struct {
	// TopK sizes each heavy-hitter sketch (0 = DefaultAttrTopK).
	TopK int
	// PageSize buckets addresses into pages (0 = 4096).
	PageSize uint64
	// L2Sets and L2Block locate the second-level set of a physical address
	// for the hot-set sketch; zero L2Sets disables set tracking.
	L2Sets  int
	L2Block uint64
}

// DefaultAttrTopK is the heavy-hitter sketch size used when none is given.
const DefaultAttrTopK = 16

// cpuAttr is one CPU's running attribution state.
type cpuAttr struct {
	level    int // level that will satisfy the in-flight reference (1/2/3)
	refs     uint64
	l1Misses uint64
	l2Misses uint64
	synonyms uint64
	blame    [NumMechanisms]uint64
}

// Attribution is a probe Sink that splits every measured cycle by the
// mechanism that consumed it and tracks the heavy hitters behind the
// expensive ones. The split is exact by construction: the engine mirrors
// every charge into the event stream, service charges are classified by the
// access events that preceded them, and Reconcile proves the sums equal the
// engine's per-agent clocks to the cycle.
type Attribution struct {
	cfg       AttrConfig
	cpus      []*cpuAttr
	pagesMiss *TopK // VA page → L1 misses
	pagesSyn  *TopK // page (PA when known) → synonym resolutions
	setsMiss  *TopK // L2 set → L2 misses
}

// NewAttribution creates an attribution profiler.
func NewAttribution(cfg AttrConfig) *Attribution {
	if cfg.TopK <= 0 {
		cfg.TopK = DefaultAttrTopK
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.L2Block == 0 {
		cfg.L2Block = 32
	}
	return &Attribution{
		cfg:       cfg,
		pagesMiss: NewTopK(cfg.TopK),
		pagesSyn:  NewTopK(cfg.TopK),
		setsMiss:  NewTopK(cfg.TopK),
	}
}

func (a *Attribution) cpuFor(cpu int) *cpuAttr {
	cpu = clampCPU(cpu)
	for cpu >= len(a.cpus) {
		a.cpus = append(a.cpus, &cpuAttr{level: 1})
	}
	return a.cpus[cpu]
}

func (a *Attribution) page(va, pa uint64) uint64 {
	if pa != 0 {
		return pa / a.cfg.PageSize
	}
	return va / a.cfg.PageSize
}

// Event implements probe.Sink.
func (a *Attribution) Event(ev probe.Event) {
	c := a.cpuFor(ev.CPU)
	if l := serviceLevel(ev.Kind); l > 0 {
		c.level = l
	}
	if ev.Kind.IsTiming() {
		c.blame[mechanismOf(ev.Kind, c.level)] += ev.Aux
		if ev.Kind == probe.EvTimeAccess {
			c.refs++
			c.level = 1
		}
		return
	}
	switch ev.Kind {
	case probe.EvL1Miss:
		c.l1Misses++
		a.pagesMiss.Add(uint64(ev.VA)/a.cfg.PageSize, 1)
	case probe.EvL2Miss:
		c.l2Misses++
		if a.cfg.L2Sets > 0 {
			a.setsMiss.Add(uint64(ev.PA)/a.cfg.L2Block%uint64(a.cfg.L2Sets), 1)
		}
	case probe.EvSynSameSet, probe.EvSynMove, probe.EvSynCross, probe.EvSynBuffered:
		c.synonyms++
		a.pagesSyn.Add(a.page(uint64(ev.VA), uint64(ev.PA)), 1)
	}
}

// MechBlame is one mechanism's share of the measured cycles.
type MechBlame struct {
	Mechanism string `json:"mechanism"`
	Cycles    uint64 `json:"cycles"`
}

// CPUBlame is one CPU's attribution: its clock reconstruction and the
// per-mechanism split.
type CPUBlame struct {
	CPU        int         `json:"cpu"`
	Refs       uint64      `json:"refs"`
	Cycles     uint64      `json:"cycles"`
	L1Misses   uint64      `json:"l1Misses"`
	L2Misses   uint64      `json:"l2Misses"`
	Synonyms   uint64      `json:"synonyms"`
	Mechanisms []MechBlame `json:"mechanisms"`
}

// AttributionReport is the profiler's summary: machine-wide and per-CPU
// blame, plus the heavy hitters. It serializes deterministically — fixed
// mechanism order, sketch output sorted weight-then-key.
type AttributionReport struct {
	Refs              uint64      `json:"refs"`
	TotalCycles       uint64      `json:"totalCycles"`
	Mechanisms        []MechBlame `json:"mechanisms"`
	CPUs              []CPUBlame  `json:"cpus"`
	TopPagesByMiss    []Hitter    `json:"topPagesByMiss,omitempty"`
	TopPagesBySynonym []Hitter    `json:"topPagesBySynonym,omitempty"`
	TopSetsByL2Miss   []Hitter    `json:"topSetsByL2Miss,omitempty"`
	TopCPUsByBusWait  []Hitter    `json:"topCPUsByBusWait,omitempty"`
}

// Report summarizes the stream seen so far.
func (a *Attribution) Report() *AttributionReport {
	r := &AttributionReport{
		Mechanisms:        make([]MechBlame, NumMechanisms),
		TopPagesByMiss:    a.pagesMiss.Top(),
		TopPagesBySynonym: a.pagesSyn.Top(),
		TopSetsByL2Miss:   a.setsMiss.Top(),
	}
	for m := Mechanism(0); m < NumMechanisms; m++ {
		r.Mechanisms[m].Mechanism = m.String()
	}
	for id, c := range a.cpus {
		cb := CPUBlame{
			CPU: id, Refs: c.refs,
			L1Misses: c.l1Misses, L2Misses: c.l2Misses, Synonyms: c.synonyms,
			Mechanisms: make([]MechBlame, NumMechanisms),
		}
		for m := Mechanism(0); m < NumMechanisms; m++ {
			cyc := c.blame[m]
			cb.Mechanisms[m] = MechBlame{Mechanism: m.String(), Cycles: cyc}
			cb.Cycles += cyc
			r.Mechanisms[m].Cycles += cyc
		}
		r.Refs += c.refs
		r.TotalCycles += cb.Cycles
		r.CPUs = append(r.CPUs, cb)
		if w := c.blame[MechBusWait]; w > 0 {
			r.TopCPUsByBusWait = append(r.TopCPUsByBusWait, Hitter{Key: uint64(id), Weight: w})
		}
	}
	sortHittersByWeight(r.TopCPUsByBusWait)
	return r
}

func sortHittersByWeight(hs []Hitter) {
	for i := 1; i < len(hs); i++ { // insertion sort: n is tiny and stable order matters
		for j := i; j > 0 && (hs[j].Weight > hs[j-1].Weight ||
			(hs[j].Weight == hs[j-1].Weight && hs[j].Key < hs[j-1].Key)); j-- {
			hs[j], hs[j-1] = hs[j-1], hs[j]
		}
	}
}

// Tacc returns the report's measured effective access time in cycles per
// reference.
func (r *AttributionReport) Tacc() float64 {
	if r.Refs == 0 {
		return 0
	}
	return float64(r.TotalCycles) / float64(r.Refs)
}

// Reconcile checks the attribution against the engine's books and returns a
// descriptive error on the first cycle of disagreement. The three service
// mechanisms must sum to each agent's Access cycles, each remaining
// mechanism must equal its breakdown counter, and the per-CPU totals must
// equal the agent clocks — cycle-exact, not approximate.
func (a *Attribution) Reconcile(eng *cycles.Engine) error {
	n := eng.Agents()
	if len(a.cpus) > n {
		n = len(a.cpus)
	}
	for id := 0; id < n; id++ {
		var c cpuAttr
		if id < len(a.cpus) {
			c = *a.cpus[id]
		}
		at := eng.Agent(id)
		service := c.blame[MechL1Service] + c.blame[MechL2Service] + c.blame[MechMemoryService]
		checks := []struct {
			name string
			got  uint64
			want uint64
		}{
			{"service (l1+l2+memory)", service, at.Access},
			{MechTLBMiss.String(), c.blame[MechTLBMiss], at.TLB},
			{MechBusWait.String(), c.blame[MechBusWait], at.BusWait},
			{MechWBStall.String(), c.blame[MechWBStall], at.Stall},
			{MechCtxSwitch.String(), c.blame[MechCtxSwitch], at.Ctx},
			{"clock", service + c.blame[MechTLBMiss] + c.blame[MechBusWait] +
				c.blame[MechWBStall] + c.blame[MechCtxSwitch], at.Clock},
			{"refs", c.refs, at.Refs},
		}
		for _, ch := range checks {
			if ch.got != ch.want {
				return fmt.Errorf("telemetry: cpu %d %s: attributed %d, engine %d",
					id, ch.name, ch.got, ch.want)
			}
		}
	}
	return nil
}

// WriteText renders the report as the diffable text form: fixed column
// layout, deterministic ordering, no timestamps.
func (r *AttributionReport) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w, "cycle attribution: %d refs, %d cycles, Tacc %.4f\n",
		r.Refs, r.TotalCycles, r.Tacc())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %14s %8s\n", "mechanism", "cycles", "share")
	for _, m := range r.Mechanisms {
		fmt.Fprintf(w, "%-16s %14d %7.2f%%\n", m.Mechanism, m.Cycles, share(m.Cycles, r.TotalCycles))
	}
	for _, c := range r.CPUs {
		fmt.Fprintf(w, "cpu %d: %d refs, %d cycles, %d l1-misses, %d l2-misses, %d synonyms\n",
			c.CPU, c.Refs, c.Cycles, c.L1Misses, c.L2Misses, c.Synonyms)
		for _, m := range c.Mechanisms {
			if m.Cycles > 0 {
				fmt.Fprintf(w, "  %-16s %14d %7.2f%%\n", m.Mechanism, m.Cycles, share(m.Cycles, c.Cycles))
			}
		}
	}
	writeHitters(w, "top pages by l1-miss", r.TopPagesByMiss, "page %#x")
	writeHitters(w, "top pages by synonym", r.TopPagesBySynonym, "page %#x")
	writeHitters(w, "top l2 sets by miss", r.TopSetsByL2Miss, "set %d")
	writeHitters(w, "top cpus by bus-wait", r.TopCPUsByBusWait, "cpu %d")
	return nil
}

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func writeHitters(w io.Writer, title string, hs []Hitter, keyFormat string) {
	if len(hs) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n", title)
	for _, h := range hs {
		fmt.Fprintf(w, "  %-14s weight %d", fmt.Sprintf(keyFormat, h.Key), h.Weight)
		if h.OverBy > 0 {
			fmt.Fprintf(w, " (over-estimate <= %d)", h.OverBy)
		}
		fmt.Fprintln(w)
	}
}

// DiffText renders a mechanism-by-mechanism comparison of two reports (the
// V-R vs R-R question: where do the extra cycles go). Reports label the
// columns; positive deltas mean b spends more.
func DiffText(w io.Writer, aLabel string, a *AttributionReport, bLabel string, b *AttributionReport) error {
	_, err := fmt.Fprintf(w, "attribution diff: %s (Tacc %.4f) vs %s (Tacc %.4f)\n",
		aLabel, a.Tacc(), bLabel, b.Tacc())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %14s %14s %14s %10s\n", "mechanism", aLabel, bLabel, "delta", "per-ref")
	for m := Mechanism(0); m < NumMechanisms; m++ {
		av, bv := a.Mechanisms[m].Cycles, b.Mechanisms[m].Cycles
		var perRef float64
		if b.Refs > 0 && a.Refs > 0 {
			perRef = float64(bv)/float64(b.Refs) - float64(av)/float64(a.Refs)
		}
		fmt.Fprintf(w, "%-16s %14d %14d %+14d %+10.4f\n",
			m.String(), av, bv, int64(bv)-int64(av), perRef)
	}
	return nil
}

// BlameMetrics converts the machine-wide blame to the monitor's metric
// type for Prometheus export.
func (r *AttributionReport) BlameMetrics() []monitor.BlameMetric {
	out := make([]monitor.BlameMetric, 0, len(r.Mechanisms))
	for _, m := range r.Mechanisms {
		out = append(out, monitor.BlameMetric{Mechanism: m.Mechanism, Cycles: m.Cycles})
	}
	return out
}

// TopMetrics converts the heavy hitters to the monitor's metric type.
func (r *AttributionReport) TopMetrics() []monitor.HeavyHitter {
	var out []monitor.HeavyHitter
	add := func(dim, keyFormat string, hs []Hitter) {
		for _, h := range hs {
			out = append(out, monitor.HeavyHitter{
				Dimension: dim, Key: fmt.Sprintf(keyFormat, h.Key), Weight: h.Weight,
			})
		}
	}
	add("page-miss", "%#x", r.TopPagesByMiss)
	add("page-synonym", "%#x", r.TopPagesBySynonym)
	add("l2-set-miss", "%d", r.TopSetsByL2Miss)
	add("cpu-bus-wait", "%d", r.TopCPUsByBusWait)
	return out
}
