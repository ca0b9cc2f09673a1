// Package cycles is the simulator's cycle-accounting engine: it measures
// the average access time the paper's Section 4 equation predicts, from the
// simulation itself, instead of evaluating the closed form on aggregate hit
// ratios. Each CPU carries a cycle clock advanced by configurable latencies
// (t1, t2, tm, a TLB-miss penalty, a context-switch flush cost), and the
// bus becomes a shared timed resource with FIFO arbitration: every
// transaction occupies the bus for a configurable number of cycles, so
// concurrent misses from different CPUs queue and the queueing delay is
// charged to the requester. Write-buffer drains (and other background
// memory writes) occupy the bus but overlap with subsequent hits: they
// stall the processor only on a buffer-full push or a coherence
// flush(buffer), exactly the paper's write-back(r-pointer) overlap
// argument.
//
// The engine follows the observability layer's nil-check pattern: every
// component holds a *CPU handle (or the bus a Timer) that may be nil, and
// every charge site is a single nil-guarded call. All arithmetic is integer
// (uint64 cycles) and every update is a max/+ of non-negative terms applied
// in the reference-serial event order, so measured times are deterministic
// and monotonically non-decreasing in every latency parameter.
package cycles

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/monitor"
	"repro/internal/probe"
	"repro/internal/stats"
)

// Params are the engine's latency inputs, in cycles. The zero value of the
// optional fields (penalties, occupancies, Contention) charges nothing, so
// DefaultParams reproduces the Section 4 closed form exactly.
type Params struct {
	T1 uint64 `json:"t1"` // first-level hit service time
	T2 uint64 `json:"t2"` // second-level hit service time
	TM uint64 `json:"tm"` // memory service time including bus overhead

	// TVictim is the service time of a first-level miss satisfied by the
	// victim cache (internal/victim). Zero means "same as t2" — a victim
	// cache then shifts traffic off the bus without a latency advantage;
	// setting TVictim < t2 models the single-cycle side array of Jouppi's
	// design.
	TVictim uint64 `json:"tVictim"`

	TLBMissPenalty uint64 `json:"tlbMissPenalty"` // extra cycles per TLB miss
	CtxSwitchCost  uint64 `json:"ctxSwitchCost"`  // flush cost per context switch

	// Bus occupancies, in cycles per transaction. A memory transaction is
	// a read-miss or read-modified-write; a control transaction is an
	// invalidation or update broadcast; a write-back transaction is a
	// buffer drain, coherence flush, or victim write to memory.
	BusMemOcc  uint64 `json:"busMemOcc"`
	BusCtrlOcc uint64 `json:"busCtrlOcc"`
	BusWBOcc   uint64 `json:"busWBOcc"`

	// Contention charges bus queueing delay to the requester's clock. With
	// it off the bus still tracks occupancy (utilization is reported) but
	// never delays anyone — the paper's closed-form idealization.
	Contention bool `json:"contention"`
}

// DefaultParams returns the paper's latency scaling (t2 = 4·t1, tm = 20·t1)
// with no extra penalties and no contention: a run under these parameters
// measures exactly the Section 4 equation.
func DefaultParams() Params { return Params{T1: 1, T2: 4, TM: 20} }

// ContentionParams returns DefaultParams plus a contended bus: a memory
// fill occupies the bus for most of the memory latency, control broadcasts
// and write-back drains for a few cycles each.
func ContentionParams() Params {
	p := DefaultParams()
	p.BusMemOcc = 12
	p.BusCtrlOcc = 2
	p.BusWBOcc = 4
	p.Contention = true
	return p
}

// Validate rejects parameter sets that cannot measure anything.
func (p Params) Validate() error {
	if p.T1 == 0 || p.T2 == 0 || p.TM == 0 {
		return fmt.Errorf("cycles: t1, t2 and tm must be positive")
	}
	return nil
}

// Breakdown partitions one agent's cycles by what they were spent on. The
// agent's clock is always the sum of the fields.
type Breakdown struct {
	Access  uint64 `json:"accessCycles"`  // t1/t2/tm service time, one term per reference
	TLB     uint64 `json:"tlbCycles"`     // TLB-miss penalties
	BusWait uint64 `json:"busWaitCycles"` // queueing for the shared bus
	Stall   uint64 `json:"stallCycles"`   // write-buffer-full and flush(buffer) stalls
	Ctx     uint64 `json:"ctxCycles"`     // context-switch flush costs
}

// Total returns the cycles across all categories.
func (b Breakdown) Total() uint64 {
	return b.Access + b.TLB + b.BusWait + b.Stall + b.Ctx
}

// Add accumulates o into b field-wise.
func (b *Breakdown) Add(o Breakdown) {
	b.Access += o.Access
	b.TLB += o.TLB
	b.BusWait += o.BusWait
	b.Stall += o.Stall
	b.Ctx += o.Ctx
}

// AgentTiming is one agent's measured state: its cycle clock, the memory
// references it completed, and where the cycles went.
type AgentTiming struct {
	Clock uint64 `json:"clock"` // == Breakdown.Total()
	Refs  uint64 `json:"refs"`
	Breakdown
}

// Tacc returns the agent's measured average access time in cycles per
// reference (0 when it completed no references).
func (a AgentTiming) Tacc() float64 {
	if a.Refs == 0 {
		return 0
	}
	return float64(a.Clock) / float64(a.Refs)
}

// agent is the per-requester timing state. Agents are indexed by bus
// snooper id, so DMA engines get clocks too (their queueing shows up in bus
// wait, not in Tacc, since they complete no processor references).
type agent struct {
	clock uint64
	refs  uint64
	bd    Breakdown
}

// Engine is the machine-wide cycle accountant: per-agent clocks plus the
// shared bus's busy-until horizon. It is not safe for concurrent use; like
// the functional simulator it is reference-serial by design.
type Engine struct {
	p      Params
	pr     *probe.Probe
	lat    *monitor.Latencies
	agents []agent

	busFree uint64 // global cycle at which the bus next falls idle
	busBusy uint64 // total cycles of bus occupancy
	busTxns uint64 // timed transactions (occupancy > 0)
}

var _ bus.Timer = (*Engine)(nil)

// New creates an engine. pr may be nil; when set, every non-zero charge is
// mirrored by a timing probe event whose Aux carries the cycles charged.
func New(p Params, pr *probe.Probe) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Engine{p: p, pr: pr}, nil
}

// MustNew is New but panics on error.
func MustNew(p Params, pr *probe.Probe) *Engine {
	e, err := New(p, pr)
	if err != nil {
		panic(err)
	}
	return e
}

// Params returns the engine's latency configuration.
func (e *Engine) Params() Params { return e.p }

// SetLatencies attaches a latency-distribution collector. lat may be nil
// (the default): every recording site calls the collector's nil-safe Record,
// so distributions cost one branch per charge when disabled.
func (e *Engine) SetLatencies(lat *monitor.Latencies) { e.lat = lat }

// Latencies returns the attached collector (nil when distributions are off).
func (e *Engine) Latencies() *monitor.Latencies { return e.lat }

// Reset zeroes all clocks and counters (steady-state measurement), keeping
// the parameters and any grown agent table.
func (e *Engine) Reset() {
	for i := range e.agents {
		e.agents[i] = agent{}
	}
	e.busFree, e.busBusy, e.busTxns = 0, 0, 0
}

// agentFor returns agent id's state, growing the table on demand (DMA
// engines attach after the CPUs).
func (e *Engine) agentFor(id int) *agent {
	if id < 0 {
		id = 0
	}
	for id >= len(e.agents) {
		e.agents = append(e.agents, agent{})
	}
	return &e.agents[id]
}

// emit mirrors one timing charge as a probe event.
func (e *Engine) emit(id int, k probe.Kind, acc stats.AccessKind, cycles uint64) {
	if e.pr == nil {
		return
	}
	e.pr.Emit(probe.Event{CPU: id, Kind: k, Access: acc, Aux: cycles})
}

// OnTxn implements bus.Timer: a foreground transaction (the requester is
// waiting on it). The bus is FIFO: the transaction is granted at
// max(requester clock, bus free); under contention the queueing delay is
// charged to the requester, and either way the occupancy extends the bus's
// busy horizon.
func (e *Engine) OnTxn(t bus.Txn) {
	var occ uint64
	switch t.Kind {
	case bus.Read, bus.ReadMod:
		occ = e.p.BusMemOcc
	default:
		occ = e.p.BusCtrlOcc
	}
	if occ == 0 {
		return // a free transaction neither waits nor reserves
	}
	a := e.agentFor(t.From)
	grant := a.clock
	if e.busFree > grant {
		grant = e.busFree
	}
	if e.p.Contention {
		e.lat.Record(t.From, monitor.LatBusWait, grant-a.clock)
	}
	if e.p.Contention && grant > a.clock {
		wait := grant - a.clock
		a.clock = grant
		a.bd.BusWait += wait
		e.emit(t.From, probe.EvTimeBusWait, 0, wait)
	}
	e.busFree = grant + occ
	e.busBusy += occ
	e.busTxns++
}

// CPU returns agent id's charging handle. A nil engine returns a nil
// handle, whose methods are all no-ops — the caller wires unconditionally.
func (e *Engine) CPU(id int) *CPU {
	if e == nil {
		return nil
	}
	return &CPU{e: e, id: id}
}

// Agents returns the number of agents that have timing state.
func (e *Engine) Agents() int { return len(e.agents) }

// Agent returns agent id's measured timing (zero if it never charged).
func (e *Engine) Agent(id int) AgentTiming {
	if id < 0 || id >= len(e.agents) {
		return AgentTiming{}
	}
	a := e.agents[id]
	return AgentTiming{Clock: a.clock, Refs: a.refs, Breakdown: a.bd}
}

// Tacc returns the machine's measured average access time: total cycles
// over total references, across agents that completed references (agents
// with none — DMA engines — contribute no time to the average).
func (e *Engine) Tacc() float64 {
	var clock, refs uint64
	for _, a := range e.agents {
		if a.refs == 0 {
			continue
		}
		clock += a.clock
		refs += a.refs
	}
	if refs == 0 {
		return 0
	}
	return float64(clock) / float64(refs)
}

// TotalRefs returns the references completed across all agents.
func (e *Engine) TotalRefs() uint64 {
	var refs uint64
	for _, a := range e.agents {
		refs += a.refs
	}
	return refs
}

// TotalBreakdown returns the machine-wide cycle breakdown: the field-wise
// sum over all agents. Its Total() equals the sum of the agent clocks — the
// figure the telemetry layer's attribution must reconcile against.
func (e *Engine) TotalBreakdown() Breakdown {
	var bd Breakdown
	for _, a := range e.agents {
		bd.Add(a.bd)
	}
	return bd
}

// BusBusy returns the total cycles of bus occupancy.
func (e *Engine) BusBusy() uint64 { return e.busBusy }

// BusTxns returns the number of timed (occupancy > 0) bus transactions.
func (e *Engine) BusTxns() uint64 { return e.busTxns }

// BusWait returns the total queueing cycles charged across all agents.
func (e *Engine) BusWait() uint64 {
	var w uint64
	for _, a := range e.agents {
		w += a.bd.BusWait
	}
	return w
}

// State is the engine's serializable state (checkpoint support): every
// agent's timing plus the shared bus horizon.
type State struct {
	Agents  []AgentTiming
	BusFree uint64
	BusBusy uint64
	BusTxns uint64
}

// ExportState captures the engine's clocks and counters.
func (e *Engine) ExportState() State {
	st := State{BusFree: e.busFree, BusBusy: e.busBusy, BusTxns: e.busTxns}
	for i := range e.agents {
		st.Agents = append(st.Agents, e.Agent(i))
	}
	return st
}

// RestoreState replaces the engine's clocks and counters. Each agent's
// clock must equal its breakdown total — the invariant every charge site
// maintains.
func (e *Engine) RestoreState(st State) error {
	for i, a := range st.Agents {
		if a.Clock != a.Breakdown.Total() {
			return fmt.Errorf("cycles: state agent %d clock %d != breakdown total %d",
				i, a.Clock, a.Breakdown.Total())
		}
	}
	e.agents = e.agents[:0]
	for _, a := range st.Agents {
		e.agents = append(e.agents, agent{clock: a.Clock, refs: a.Refs, bd: a.Breakdown})
	}
	e.busFree, e.busBusy, e.busTxns = st.BusFree, st.BusBusy, st.BusTxns
	return nil
}

// CPU is one agent's nil-safe charging handle, held by its hierarchy.
type CPU struct {
	e  *Engine
	id int
}

// EndAccess charges the service time of one completed memory reference:
// t1, t2 or tm by the level that satisfied it (1, 2, or 3 for memory).
func (c *CPU) EndAccess(kind stats.AccessKind, level int) {
	if c == nil {
		return
	}
	var d uint64
	switch level {
	case 1:
		d = c.e.p.T1
	case 2:
		d = c.e.p.T2
	default:
		d = c.e.p.TM
	}
	a := c.e.agentFor(c.id)
	a.clock += d
	a.refs++
	a.bd.Access += d
	c.e.lat.Record(c.id, monitor.LatAccess, d)
	c.e.emit(c.id, probe.EvTimeAccess, kind, d)
}

// EndAccessVictim charges the service time of one completed reference that
// missed the first level but was supplied by the victim cache: TVictim
// when configured, otherwise t2.
func (c *CPU) EndAccessVictim(kind stats.AccessKind) {
	if c == nil {
		return
	}
	d := c.e.p.TVictim
	if d == 0 {
		d = c.e.p.T2
	}
	a := c.e.agentFor(c.id)
	a.clock += d
	a.refs++
	a.bd.Access += d
	c.e.lat.Record(c.id, monitor.LatAccess, d)
	c.e.emit(c.id, probe.EvTimeAccess, kind, d)
}

// TLBMiss charges the TLB-miss penalty (a table walk serialized with the
// reference).
func (c *CPU) TLBMiss() {
	if c == nil || c.e.p.TLBMissPenalty == 0 {
		return
	}
	a := c.e.agentFor(c.id)
	a.clock += c.e.p.TLBMissPenalty
	a.bd.TLB += c.e.p.TLBMissPenalty
	c.e.emit(c.id, probe.EvTimeTLBMiss, 0, c.e.p.TLBMissPenalty)
}

// CtxSwitch charges the context-switch flush cost.
func (c *CPU) CtxSwitch() {
	if c == nil || c.e.p.CtxSwitchCost == 0 {
		return
	}
	a := c.e.agentFor(c.id)
	a.clock += c.e.p.CtxSwitchCost
	a.bd.Ctx += c.e.p.CtxSwitchCost
	c.e.emit(c.id, probe.EvTimeCtxSwitch, 0, c.e.p.CtxSwitchCost)
}

// BusWrite reserves the bus for one background write-back (a buffer drain,
// coherence flush, or victim write to memory). The write overlaps with the
// processor — it occupies the bus without advancing the agent's clock — so
// its only timing effect is on later requesters' queueing.
func (c *CPU) BusWrite() {
	if c == nil || c.e.p.BusWBOcc == 0 {
		return
	}
	e := c.e
	at := e.agentFor(c.id).clock
	grant := at
	if e.busFree > grant {
		grant = e.busFree
	}
	e.busFree = grant + e.p.BusWBOcc
	e.busBusy += e.p.BusWBOcc
	e.busTxns++
	e.lat.Record(c.id, monitor.LatWBDrain, (grant-at)+e.p.BusWBOcc)
}

// WBStall stalls the processor until the bus is idle: the write buffer was
// full (or a coherence flush forced a drain), so the processor must wait
// for the pending write-back to clear the bus before proceeding.
func (c *CPU) WBStall() {
	if c == nil || !c.e.p.Contention {
		return
	}
	e := c.e
	a := e.agentFor(c.id)
	if e.busFree <= a.clock {
		return
	}
	wait := e.busFree - a.clock
	a.clock = e.busFree
	a.bd.Stall += wait
	e.lat.Record(c.id, monitor.LatWBStall, wait)
	e.emit(c.id, probe.EvTimeWBStall, 0, wait)
}
