// Package system assembles a shared-bus multiprocessor (Figure 1 of the
// paper): N per-processor two-level hierarchies snooping one bus over one
// memory, all sharing an MMU. It drives traces through the machine,
// optionally checking a sequential-consistency oracle and the hierarchies'
// structural invariants after every reference.
package system

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/memory"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Organization selects the cache organization under evaluation.
type Organization int

// Organizations the paper compares, plus the reverse-lookup-table synonym
// variant.
const (
	VR            Organization = iota // virtual L1 / real L2 with inclusion
	RRInclusion                       // real L1 / real L2 with inclusion
	RRNoInclusion                     // real L1 / real L2, independent levels
	VRRLT                             // VR with the reverse-lookup synonym table
)

// String returns the organization's table label.
func (o Organization) String() string {
	switch o {
	case VR:
		return "VR"
	case RRInclusion:
		return "RR(incl)"
	case RRNoInclusion:
		return "RR(no incl)"
	case VRRLT:
		return "VR(rlt)"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// Config describes a machine.
type Config struct {
	CPUs         int
	Organization Organization
	PageSize     uint64 // default 4096

	L1    cache.Geometry
	Split bool
	L2    cache.Geometry

	TLBEntries      int    // default 64
	TLBAssoc        int    // default 2
	WriteBufDepth   int    // default 1
	WriteBufLatency uint64 // references until a buffered write-back drains; default 4
	EagerCtxFlush   bool

	// L1Policy and L2Policy select each level's replacement policy; the
	// zero value is LRU (the paper's). PolicySeed seeds Random replacement
	// deterministically per cache.
	L1Policy   cache.Policy
	L2Policy   cache.Policy
	PolicySeed int64

	// PIDTagged enables the Section 2 PID-tag alternative to flushing the
	// V-cache on context switches (V-R only).
	PIDTagged bool
	// Protocol selects the coherence protocol (default write-invalidate).
	Protocol core.Protocol
	// NaiveL2Replacement disables the relaxed-inclusion victim preference.
	NaiveL2Replacement bool
	// L1WriteThrough selects the Section 2 write-through, no-write-allocate
	// first-level policy instead of write-back.
	L1WriteThrough bool
	// VictimEntries inserts a victim cache of that many blocks between the
	// levels of every CPU (any organization; 0 disables).
	VictimEntries int
	// RLTEntries sizes the VRRLT organization's reverse-lookup synonym
	// table; 0 defaults to half the first level's line count. RLTAssoc is
	// the table's associativity (0: rlt.DefaultAssoc). Only VRRLT accepts
	// either.
	RLTEntries int
	RLTAssoc   int
	// Probe, when set, receives typed events from every hierarchy, the
	// bus, and any DMA agents (see internal/probe). Nil disables all
	// emission.
	Probe *probe.Probe
	// ProbeEphemeral marks the attached Probe as observational-only for
	// checkpointing purposes. Export/RestoreState normally refuse a
	// machine with a probe because the probe's internal cursors (window
	// boundaries, the reference counter) are not serialized; with
	// ProbeEphemeral set the caller accepts that a restored run's
	// observability output restarts from zero, or saves what it needs
	// itself (the job server carries its open progress window). Simulated
	// state — and therefore the statistics report — is unaffected either
	// way. The job server uses this to stream progress windows from
	// checkpointable jobs whose reports exclude the probe section.
	ProbeEphemeral bool
	// Cycles, when set, measures per-CPU access times: the system charges
	// each reference's service time (t1/t2/tm) and context-switch cost,
	// the hierarchies charge TLB penalties, write-back occupancy and
	// stalls, and the bus arbitrates timed transactions through it. Nil
	// disables all cycle accounting.
	Cycles *cycles.Engine

	// Audit, when set, re-verifies the machine's structural invariants
	// online: the auditor snapshots every hierarchy and checks inclusion,
	// copy uniqueness, pointer reciprocity, buffer-bit bijection, dirty-bit
	// consistency and cross-CPU coherence every N references (see
	// internal/audit). Nil disables auditing; the hot path then pays only a
	// nil check.
	Audit *audit.Auditor

	// CheckOracle verifies on every read that the newest write to the
	// physical block is observed.
	CheckOracle bool
}

func (c *Config) applyDefaults() {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.CPUs == 0 {
		c.CPUs = 1
	}
	if c.TLBEntries == 0 {
		c.TLBEntries = 64
	}
	if c.TLBAssoc == 0 {
		c.TLBAssoc = 2
	}
	if c.WriteBufDepth == 0 {
		c.WriteBufDepth = 1 // the paper's single swapped write-back buffer
	}
	if c.WriteBufLatency == 0 {
		c.WriteBufLatency = 4
	}
}

// System is an assembled machine.
type System struct {
	cfg    Config
	mmu    *vm.MMU
	bus    *bus.Bus
	mem    *memory.Memory
	tokens *core.TokenSource
	cpus   []core.Hierarchy
	cyc    []*cycles.CPU  // per-CPU timing handles; nil entries when disabled
	aud    *audit.Auditor // nil when auditing is disabled
	oracle map[addr.PAddr]uint64
	refs   uint64
	// runBufs are Run's read-ahead buffers, kept from one Run to the next.
	runBufs [][]trace.Ref
}

// New builds a machine from cfg, or returns the reason Validate gives for
// rejecting it.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	mmu, err := vm.New(cfg.PageSize)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		mmu:    mmu,
		bus:    bus.New(),
		mem:    memory.MustNew(cfg.L1.Block),
		tokens: &core.TokenSource{},
		aud:    cfg.Audit,
	}
	s.bus.SetProbe(cfg.Probe)
	if cfg.Cycles != nil {
		s.bus.SetTimer(cfg.Cycles)
	}
	if cfg.CheckOracle {
		s.oracle = make(map[addr.PAddr]uint64)
	}
	for i := 0; i < cfg.CPUs; i++ {
		opts := core.Options{
			MMU:             s.mmu,
			Bus:             s.bus,
			Mem:             s.mem,
			Tokens:          s.tokens,
			L1:              cfg.L1,
			Split:           cfg.Split,
			L2:              cfg.L2,
			TLBEntries:      cfg.TLBEntries,
			TLBAssoc:        cfg.TLBAssoc,
			WriteBufDepth:   cfg.WriteBufDepth,
			WriteBufLatency: cfg.WriteBufLatency,
			EagerCtxFlush:   cfg.EagerCtxFlush,
			L1Policy:        cfg.L1Policy,
			L2Policy:        cfg.L2Policy,
			PolicySeed:      cfg.PolicySeed + int64(i)*1000,
			PIDTagged:       cfg.PIDTagged,
			Protocol:        cfg.Protocol,

			NaiveL2Replacement: cfg.NaiveL2Replacement,
			L1WriteThrough:     cfg.L1WriteThrough,
			VictimEntries:      cfg.VictimEntries,
			Probe:              cfg.Probe,
			Cycles:             cfg.Cycles,
		}
		var h core.Hierarchy
		switch cfg.Organization {
		case VR:
			h, err = core.NewVR(opts)
		case RRInclusion:
			h, err = core.NewRR(opts)
		case RRNoInclusion:
			h, err = core.NewRRNoInclusion(opts)
		case VRRLT:
			opts.RLTEntries, opts.RLTAssoc = cfg.rltEntries(), cfg.RLTAssoc
			h, err = core.NewVR(opts)
		}
		if err != nil {
			return nil, err
		}
		s.cpus = append(s.cpus, h)
		// Hierarchies attach to the bus in CPU order, so CPU i's snooper
		// (and timing agent) id is i.
		s.cyc = append(s.cyc, cfg.Cycles.CPU(i))
	}
	return s, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// MMU exposes the machine's MMU so workloads can set up shared mappings.
func (s *System) MMU() *vm.MMU { return s.mmu }

// Memory exposes the machine's memory.
func (s *System) Memory() *memory.Memory { return s.mem }

// Bus exposes the machine's bus.
func (s *System) Bus() *bus.Bus { return s.bus }

// CPUs returns the number of processors.
func (s *System) CPUs() int { return len(s.cpus) }

// CPU returns processor i's hierarchy.
func (s *System) CPU(i int) core.Hierarchy { return s.cpus[i] }

// Stats returns processor i's counters.
func (s *System) Stats(i int) *core.Stats { return s.cpus[i].Stats() }

// Refs returns the number of memory references applied so far.
func (s *System) Refs() uint64 { return s.refs }

// Probe returns the machine's event probe (nil when observability is
// disabled).
func (s *System) Probe() *probe.Probe { return s.cfg.Probe }

// Cycles returns the machine's cycle engine (nil when timing is disabled).
func (s *System) Cycles() *cycles.Engine { return s.cfg.Cycles }

// Config returns the machine's (defaults-applied) configuration, so
// attached tooling — the telemetry layer needs the L2 geometry and page
// size — can describe the machine it is observing.
func (s *System) Config() Config { return s.cfg }

// Apply runs one trace record through the machine.
func (s *System) Apply(ref trace.Ref) (core.AccessResult, error) {
	if int(ref.CPU) >= len(s.cpus) {
		return core.AccessResult{}, fmt.Errorf("system: record for CPU %d on a %d-CPU machine",
			ref.CPU, len(s.cpus))
	}
	if s.cfg.Probe != nil && ref.Kind != trace.CtxSwitch {
		s.cfg.Probe.AdvanceRef()
	}
	res := s.cpus[ref.CPU].Access(ref)
	if res.CtxSwitch {
		s.cyc[ref.CPU].CtxSwitch()
	} else {
		s.refs++
		if res.VictimHit {
			s.cyc[ref.CPU].EndAccessVictim(res.Kind)
		} else {
			s.cyc[ref.CPU].EndAccess(res.Kind, res.Level())
		}
	}
	if s.oracle != nil && !res.CtxSwitch {
		if ref.Kind == trace.Write {
			s.oracle[res.PA] = res.Token
		} else if want := s.oracle[res.PA]; res.Token != want {
			return res, fmt.Errorf("system: oracle violation: cpu %d %v %#x (pa %#x) read token %d, want %d",
				ref.CPU, ref.Kind, uint64(ref.Addr), uint64(res.PA), res.Token, want)
		}
	}
	if s.aud != nil {
		s.aud.Tick(s)
	}
	return res, nil
}

// Auditor returns the machine's online auditor (nil when auditing is
// disabled).
func (s *System) Auditor() *audit.Auditor { return s.aud }

// AuditSnapshot implements audit.Source: a point-in-time copy of every
// hierarchy's structural state, in CPU order.
func (s *System) AuditSnapshot() *audit.Snapshot {
	snap := &audit.Snapshot{
		Organization: s.cfg.Organization.String(),
		Protocol:     s.cfg.Protocol.String(),
		Refs:         s.refs,
	}
	for _, h := range s.cpus {
		snap.CPUs = append(snap.CPUs, h.Snapshot())
	}
	return snap
}

// ApplyBatch runs a slice of trace records through the machine. It is the
// batched entry point the sweep engine uses: one call per batch instead of
// one interface call per reference.
func (s *System) ApplyBatch(refs []trace.Ref) error {
	for _, ref := range refs {
		if _, err := s.Apply(ref); err != nil {
			return err
		}
	}
	return nil
}

// runBatchSize is the slice length Run reads at a time; large enough to
// amortize the Reader interface call, small enough to stay cache-resident.
const runBatchSize = 4096

// runAhead is the number of batch buffers Run's reader cycles through. Two
// would let the reader fill one while the machine applies the other; two
// more absorb the jitter between a batch that is slow to generate and one
// that is slow to simulate, so neither side waits on the other's every
// hiccup. At 16-byte records that is 256 KB per machine.
const runAhead = 4

// Run drives every record from r through the machine and drains the write
// buffers at the end. Reads go through the batched path (trace.FillBatch),
// so readers implementing trace.BatchReader are consumed a slice at a time.
//
// Run reads ahead through trace.Fanout: one helper goroutine fills runAhead
// batches from r while the caller's goroutine applies them in stream
// order, so producing the trace overlaps simulating it. Only the reader
// moves; the machine, and every probe sink, auditor, cycle engine and
// callback it drives, runs on the caller's goroutine. Records read before a
// reader error are applied and the error is returned without draining. An
// error from the machine stops the reader and is returned; by then the
// reader may have read up to runAhead-1 batches past the failing one. A
// panic inside r is re-raised on the caller's goroutine with the same
// value. Run returns only after the helper has exited, so r is never read
// after Run returns. The buffers are allocated on the first Run and kept
// for later ones.
func (s *System) Run(r trace.Reader) error {
	if s.runBufs == nil {
		s.runBufs = make([][]trace.Ref, runAhead)
		for i := range s.runBufs {
			s.runBufs[i] = make([]trace.Ref, runBatchSize)
		}
	}
	var applyErr error
	readErr := trace.Fanout(r, s.runBufs, func(refs []trace.Ref) bool {
		applyErr = s.ApplyBatch(refs)
		return applyErr == nil
	})
	if applyErr != nil {
		return applyErr
	}
	if readErr != nil {
		return readErr
	}
	s.Drain()
	return nil
}

// Drain empties every write buffer into the second level.
func (s *System) Drain() {
	for _, h := range s.cpus {
		h.Drain()
	}
}

// ResetStats zeroes every statistic — per-CPU, bus and memory — without
// touching cache contents, so measurements can exclude warm-up. The
// reference count restarts too.
func (s *System) ResetStats() {
	for _, h := range s.cpus {
		h.Stats().Reset()
	}
	s.bus.ResetStats()
	s.mem.ResetStats()
	if s.cfg.Cycles != nil {
		s.cfg.Cycles.Reset()
	}
	s.refs = 0
}

// AggregateStats sums hit-ratio statistics across CPUs, the form the
// paper's Tables 6-10 report.
type AggregateStats struct {
	L1, L2 struct {
		Overall   float64
		DataRead  float64
		DataWrite float64
		Instr     float64
	}
	H1, H2 float64 // aliases of the overall ratios, the paper's h1/h2
}

// Aggregate computes machine-wide hit ratios.
func (s *System) Aggregate() AggregateStats {
	var l1, l2 stats.LevelStats
	for _, h := range s.cpus {
		st := h.Stats()
		l1.Add(&st.L1)
		l2.Add(&st.L2)
	}
	var a AggregateStats
	a.L1.Overall = l1.Overall().Value()
	a.L1.DataRead = l1.Kind(stats.KindRead).Value()
	a.L1.DataWrite = l1.Kind(stats.KindWrite).Value()
	a.L1.Instr = l1.Kind(stats.KindIFetch).Value()
	a.L2.Overall = l2.Overall().Value()
	a.L2.DataRead = l2.Kind(stats.KindRead).Value()
	a.L2.DataWrite = l2.Kind(stats.KindWrite).Value()
	a.L2.Instr = l2.Kind(stats.KindIFetch).Value()
	a.H1, a.H2 = a.L1.Overall, a.L2.Overall
	return a
}

// CoherenceMessages returns, per CPU, the number of coherence messages that
// reached the first-level cache — the quantity of Tables 11-13.
func (s *System) CoherenceMessages() []uint64 {
	out := make([]uint64, len(s.cpus))
	for i, h := range s.cpus {
		out[i] = h.Stats().Coherence.Total()
	}
	return out
}
