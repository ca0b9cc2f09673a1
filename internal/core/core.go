// Package core implements the paper's contribution: the two-level
// virtual-real (V-R) cache hierarchy controller of Section 3, together with
// the physically-addressed (R-R) organizations the paper evaluates against.
//
// A Hierarchy is one processor's private two-level cache attached to the
// shared bus. Three organizations are provided:
//
//   - NewVR: virtually-addressed L1 over a physically-addressed L2 with
//     inclusion, synonym resolution through the L2's v-pointers, lazy
//     swapped-valid context-switch flushing, and coherence shielding.
//   - NewRR: physically-addressed L1 (behind a per-reference TLB) over the
//     same L2 with inclusion — the paper's R-R (incl) baseline.
//   - NewRRNoInclusion: physically-addressed two-level hierarchy without
//     inclusion, where every remote bus transaction must probe the L1 —
//     the paper's R-R (no incl) baseline.
//
// The simulator is reference-serial: references are applied one at a time
// in global trace order, and a bus transaction runs all other hierarchies'
// snoop handlers synchronously. Each processor write stamps a fresh token;
// reads report the token they observed so the system layer can check
// sequential consistency against an oracle.
package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cycles"
	"repro/internal/memory"
	"repro/internal/probe"
	"repro/internal/rcache"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// TokenSource hands out unique, monotonically increasing write tokens. One
// source is shared by every hierarchy in a system so that "newest write"
// is globally well defined.
type TokenSource struct{ n uint64 }

// Next returns a fresh token (never zero).
func (t *TokenSource) Next() uint64 {
	t.n++
	return t.n
}

// Last returns the most recently issued token.
func (t *TokenSource) Last() uint64 { return t.n }

// RestoreLast rewinds (or advances) the source so that Last() == n
// (checkpoint support).
func (t *TokenSource) RestoreLast(n uint64) { t.n = n }

// SynonymKind classifies how a first-level miss found its data already at
// the first level under another address.
type SynonymKind int

// Synonym resolution outcomes.
const (
	SynNone     SynonymKind = iota
	SynSameSet              // live copy in the same V set: retagged in place
	SynMove                 // live copy in a different set: moved
	SynCross                // copy in the other cache of a split pair: moved
	SynBuffered             // modified copy reattached from the write buffer
)

// String returns the outcome's label.
func (k SynonymKind) String() string {
	switch k {
	case SynNone:
		return "none"
	case SynSameSet:
		return "sameset"
	case SynMove:
		return "move"
	case SynCross:
		return "cross-cache"
	case SynBuffered:
		return "buffer-reattach"
	default:
		return fmt.Sprintf("SynonymKind(%d)", int(k))
	}
}

// AccessResult reports what one memory reference did.
type AccessResult struct {
	CtxSwitch bool             // the record was a context switch, nothing else applies
	Kind      stats.AccessKind //
	L1Hit     bool             //
	L2Hit     bool             // meaningful only when !L1Hit
	VictimHit bool             // the miss was served by the victim cache (timing only)
	Synonym   SynonymKind      //
	PA        addr.PAddr       // physical address of the referenced L1 block
	Token     uint64           // token read (loads) or written (stores)
}

// Level returns 1, 2 or 3 for L1 hit, L2 hit, or memory.
func (r AccessResult) Level() int {
	switch {
	case r.L1Hit:
		return 1
	case r.L2Hit:
		return 2
	default:
		return 3
	}
}

// Stats aggregates one hierarchy's counters.
type Stats struct {
	L1, L2    stats.LevelStats     // hit ratios by access kind
	Coherence stats.CoherenceStats // messages reaching the first level
	Synonyms  [5]uint64            // indexed by SynonymKind
	TLB       struct{ Hits, Misses uint64 }

	WriteBacks           uint64 // dirty victims leaving L1
	SwappedWriteBacks    uint64 // of which swapped-valid
	CtxSwitches          uint64
	InclusionInvals      uint64 // L1 children invalidated by an L2 replacement
	BufferStalls         uint64 // write-buffer pushes that found the buffer full
	EagerFlushWriteBacks uint64 // write-backs clustered at switch time (ablation)
	MemWritesDirect      uint64 // L1 write-backs bypassing L2 (no-inclusion only)
	VictimHits           uint64 // first-level misses served by the victim cache
	VictimInserts        uint64 // first-level victims parked in the victim cache
	RLTEvictions         uint64 // L1 lines evicted by reverse-lookup-table capacity

	// WriteIntervals tracks distances between processor writes (the paper's
	// Table 2 — the downward write stream of a write-through L1).
	WriteIntervals *stats.IntervalTracker
	// WriteBackIntervals tracks distances between write-backs leaving the
	// L1 under write-back + swapped-valid (Table 3).
	WriteBackIntervals *stats.IntervalTracker
}

func newStats() *Stats {
	return &Stats{
		WriteIntervals:     stats.NewIntervalTracker("inter-write", 10),
		WriteBackIntervals: stats.NewIntervalTracker("inter-write-back", 10),
	}
}

// Reset zeroes every counter and starts fresh interval trackers, so
// steady-state behaviour can be measured without cold-start effects.
func (s *Stats) Reset() {
	*s = Stats{
		WriteIntervals:     stats.NewIntervalTracker("inter-write", 10),
		WriteBackIntervals: stats.NewIntervalTracker("inter-write-back", 10),
	}
}

// SynonymTotal returns the number of synonym resolutions of all kinds.
func (s *Stats) SynonymTotal() uint64 {
	var t uint64
	for _, v := range s.Synonyms {
		t += v
	}
	return t
}

// Hierarchy is one processor's two-level cache organization.
type Hierarchy interface {
	// Access applies one trace record for this hierarchy's processor.
	Access(ref trace.Ref) AccessResult
	// SnoopBus handles a bus transaction issued by another hierarchy.
	SnoopBus(t bus.Txn) bus.SnoopResult
	// Drain empties the write buffer into the second level (end of run).
	Drain()
	// Stats exposes the hierarchy's counters.
	Stats() *Stats
	// Snapshot copies the hierarchy's structural state for the audit
	// layer's invariant checks and diffable JSON dumps.
	Snapshot() *audit.CPUSnapshot
	// ExportState copies the hierarchy's complete state — tags, stamps,
	// recency clocks, buffers and counters — for checkpointing. Unlike
	// Snapshot it loses nothing: a restore continues byte-identically.
	ExportState() *HierarchyState
	// RestoreState replaces the hierarchy's state with a previously
	// exported one. The receiving hierarchy must have the same geometry
	// and organization as the exporter.
	RestoreState(*HierarchyState) error
}

// Protocol selects the bus coherence protocol.
type Protocol int

// Protocols.
const (
	// WriteInvalidate is the paper's protocol: remote copies are
	// invalidated before a shared block is modified.
	WriteInvalidate Protocol = iota
	// WriteUpdate broadcasts the new data instead (Firefly/Dragon style):
	// shared writes go through to the bus and memory, and remote copies —
	// including first-level children, reached through the v-pointers — are
	// refreshed in place. The paper notes its organization "will also work
	// for other protocols"; this option demonstrates it.
	WriteUpdate
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case WriteInvalidate:
		return "write-invalidate"
	case WriteUpdate:
		return "write-update"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Options configures a hierarchy. Every field is taken as given: which
// combinations form a machine is system.Config.Validate's call, and the
// system supplies the defaults.
type Options struct {
	MMU *vm.MMU
	Bus *bus.Bus
	Mem *memory.Memory

	L1    cache.Geometry // total first-level capacity (split halves it per side)
	Split bool           // split L1 into equal I and D caches
	L2    cache.Geometry

	TLBEntries int
	TLBAssoc   int

	// L1Policy and L2Policy select each level's replacement policy (the
	// zero value is LRU, the paper's choice). PolicySeed seeds Random
	// replacement deterministically; each cache derives its own stream
	// from it, so L1 and L2 victim choices stay uncorrelated.
	L1Policy   cache.Policy
	L2Policy   cache.Policy
	PolicySeed int64

	WriteBufDepth   int    // write-back buffer entries
	WriteBufLatency uint64 // references until a buffered write-back drains

	// EagerCtxFlush disables the swapped-valid scheme: context switches
	// write every dirty line back immediately (the ablation the paper's
	// Table 3 argues against).
	EagerCtxFlush bool

	// PIDTagged widens every V-cache tag with the process identifier — the
	// Section 2 alternative to flushing on context switches.
	PIDTagged bool

	// Protocol selects the coherence protocol (default WriteInvalidate).
	Protocol Protocol

	// NaiveL2Replacement disables the relaxed-inclusion victim preference
	// (ablation: how many inclusion invalidations the preference avoids).
	NaiveL2Replacement bool

	// L1WriteThrough switches the first level to the write-through,
	// no-write-allocate policy the paper's Section 2 examines and rejects:
	// every write goes down to the R-cache (through a bounded buffer whose
	// stalls are counted), first-level lines are never dirty, and write
	// misses do not allocate.
	L1WriteThrough bool

	// VictimEntries, when positive, inserts a small fully-associative
	// victim cache (Jouppi style) between the levels: first-level victims
	// are parked there and a first-level miss that finds its block parked
	// is charged TVictim instead of the second-level time. Purely a timing
	// layer — the data a reference observes never changes.
	VictimEntries int

	// RLTEntries, when positive, replaces the paper's per-subentry
	// v-pointer synonym mechanism with a bounded reverse-lookup table of
	// that many entries (internal/rlt): smaller SRAM state, but table
	// capacity evictions force first-level lines out. RLTAssoc selects the
	// table's associativity (0: rlt.DefaultAssoc).
	RLTEntries int
	RLTAssoc   int

	// Probe, when set, receives a typed event for every mechanism the
	// hierarchy exercises (hits, misses, synonyms, write-buffer traffic,
	// coherence messages, ...). Nil disables emission entirely; the hot
	// paths then pay only a nil check.
	Probe *probe.Probe

	// Cycles, when set, charges the hierarchy's TLB-miss penalties,
	// write-back bus occupancy and stalls to the cycle engine (the system
	// layer charges the per-reference service time). Nil disables timing;
	// the hot paths then pay only nil checks.
	Cycles *cycles.Engine

	Tokens *TokenSource
}

// newRCache builds a second-level cache from the options' L2 policy, with
// its Random-replacement stream offset away from the first level's.
func newRCache(o Options) (*rcache.RCache, error) {
	r, err := rcache.NewWithPolicy(o.L2, o.L1.Block, o.L2Policy, o.PolicySeed+100)
	if err != nil {
		return nil, fmt.Errorf("core: L2: %w", err)
	}
	return r, nil
}

// prepare defaults the token source and checks what only the hierarchy can:
// that it is wired to a machine, and that memory holds first-level blocks.
// Whether the options form a legal machine is system.Config.Validate's
// call; the components' constructors reject shapes they cannot build.
func (o *Options) prepare() error {
	if o.Tokens == nil {
		o.Tokens = &TokenSource{}
	}
	if o.MMU == nil || o.Bus == nil || o.Mem == nil {
		return fmt.Errorf("core: MMU, Bus and Mem are required")
	}
	if o.Mem.Granularity() != o.L1.Block {
		return fmt.Errorf("core: memory granularity %d != L1 block %d",
			o.Mem.Granularity(), o.L1.Block)
	}
	return nil
}

// sideGeoms returns the geometries of the first-level caches: one unified,
// or the D and I halves.
func (o *Options) sideGeoms() []cache.Geometry {
	if !o.Split {
		return []cache.Geometry{o.L1}
	}
	half := o.L1
	half.Size /= 2
	return []cache.Geometry{half, half}
}

// statKind maps a trace record kind to its statistics class.
func statKind(k trace.Kind) stats.AccessKind {
	switch k {
	case trace.IFetch:
		return stats.KindIFetch
	case trace.Read:
		return stats.KindRead
	default:
		return stats.KindWrite
	}
}
