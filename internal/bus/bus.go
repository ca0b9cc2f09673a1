// Package bus models the shared snooping bus connecting the per-processor
// cache hierarchies (Figure 1 of the paper). It carries the three coherence
// transactions of the paper's invalidation protocol — read-miss,
// read-modified-write and invalidation — delivers each to every other
// hierarchy's snooper, and aggregates the sharing/supply responses.
package bus

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/probe"
)

// Kind classifies a bus transaction.
type Kind int

// Transaction kinds (the paper's invalidation protocol).
const (
	Read       Kind = iota // read-miss: fetch a block, others may keep shared copies
	ReadMod                // read-modified-write: fetch with intent to write; others invalidate
	Invalidate             // write hit on shared: others invalidate, no data transfer
	Update                 // write-update protocol: others refresh their copies
	numKinds
)

// String returns the transaction kind's name.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read-miss"
	case ReadMod:
		return "read-modified-write"
	case Invalidate:
		return "invalidation"
	case Update:
		return "update"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Txn is one bus transaction, covering the physical byte range
// [Addr, Addr+Size) — the requester's L2 block.
type Txn struct {
	Kind Kind
	From int // issuing snooper id
	Addr addr.PAddr
	Size uint64
	// Token carries the written data of an Update transaction (the
	// simulator's per-block data token).
	Token uint64
}

// SnoopResult is one snooper's (or the aggregate) response.
type SnoopResult struct {
	Shared   bool // responder retains a copy of (part of) the block
	Supplied bool // responder held modified data and flushed it to memory
}

// merge folds o into r.
func (r *SnoopResult) merge(o SnoopResult) {
	r.Shared = r.Shared || o.Shared
	r.Supplied = r.Supplied || o.Supplied
}

// Snooper is a cache hierarchy's bus-facing interface. SnoopBus must
// tolerate transactions covering any byte range.
type Snooper interface {
	SnoopBus(t Txn) SnoopResult
}

// Stats counts bus activity.
type Stats struct {
	ByKind   [numKinds]uint64
	Supplies uint64 // transactions answered by another cache's modified data
}

// Total returns the number of transactions of all kinds.
func (s Stats) Total() uint64 {
	var t uint64
	for _, v := range s.ByKind {
		t += v
	}
	return t
}

// Count returns the number of transactions of kind k.
func (s Stats) Count(k Kind) uint64 { return s.ByKind[k] }

// Timer observes every transaction before it is snooped, so a timing model
// can arbitrate the bus as a shared resource: charge the requester any
// queueing delay and account the transaction's occupancy. internal/cycles
// implements it.
type Timer interface {
	OnTxn(t Txn)
}

// Bus is the shared bus. It is not safe for concurrent use; the simulator
// is reference-serial by design.
type Bus struct {
	snoopers []Snooper
	stats    Stats
	pr       *probe.Probe
	timer    Timer
}

// New creates an empty bus.
func New() *Bus { return &Bus{} }

// SetProbe attaches an event probe (nil disables emission).
func (b *Bus) SetProbe(p *probe.Probe) { b.pr = p }

// SetTimer attaches a cycle-accounting timer (nil disables timing).
func (b *Bus) SetTimer(t Timer) { b.timer = t }

// busEventKind maps a transaction kind to its probe event.
var busEventKind = [numKinds]probe.Kind{
	Read:       probe.EvBusRead,
	ReadMod:    probe.EvBusReadMod,
	Invalidate: probe.EvBusInvalidate,
	Update:     probe.EvBusUpdate,
}

// Attach registers a snooper and returns its id, which the snooper must use
// as Txn.From so its own transactions are not reflected back to it.
func (b *Bus) Attach(s Snooper) int {
	b.snoopers = append(b.snoopers, s)
	return len(b.snoopers) - 1
}

// Snoopers returns the number of attached snoopers.
func (b *Bus) Snoopers() int { return len(b.snoopers) }

// Stats returns a copy of the bus counters.
func (b *Bus) Stats() Stats { return b.stats }

// ResetStats zeroes the bus counters (steady-state measurement).
func (b *Bus) ResetStats() { b.stats = Stats{} }

// RestoreStats replaces the bus counters (checkpoint support).
func (b *Bus) RestoreStats(s Stats) { b.stats = s }

// Issue broadcasts t to every snooper except the issuer and returns the
// aggregated response.
func (b *Bus) Issue(t Txn) SnoopResult {
	if t.Kind < 0 || t.Kind >= numKinds {
		panic(fmt.Sprintf("bus: bad transaction kind %d", t.Kind))
	}
	b.stats.ByKind[t.Kind]++
	if b.timer != nil {
		// Arbitrate before snooping: any write-backs a snooper flushes in
		// response queue behind this transaction's own occupancy.
		b.timer.OnTxn(t)
	}
	if b.pr != nil {
		b.pr.Emit(probe.Event{CPU: t.From, Kind: busEventKind[t.Kind], PA: t.Addr, Aux: t.Size})
	}
	var agg SnoopResult
	for i, s := range b.snoopers {
		if i == t.From {
			continue
		}
		agg.merge(s.SnoopBus(t))
	}
	if agg.Supplied {
		b.stats.Supplies++
	}
	return agg
}
