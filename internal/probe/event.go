// Package probe is the simulator's observability layer: a pluggable event
// sink with a typed event for every mechanism the paper describes — cache
// hits and misses per reference kind, TLB lookups and aborts, synonym
// resolutions, write-buffer traffic, inclusion invalidations, coherence
// messages delivered to (or shielded from) the first level, bus
// transactions, DMA, and context switches.
//
// The design goal is near-zero overhead when disabled: every component
// holds a *Probe that may be nil, and every emission site is guarded by a
// single nil check. When enabled, Emit hands each event straight to the
// attached Sinks (a human-readable log, a Chrome trace_event exporter, a
// windowed-metrics collector, ...), so they observe global emission order
// with nothing buffered.
package probe

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/stats"
)

// Kind identifies one event type. Each kind corresponds to a mechanism of
// the paper (see the Observability section of DESIGN.md for the mapping).
type Kind uint8

// Event kinds.
const (
	// First-level and second-level accesses (Tables 6-10).
	EvL1Hit Kind = iota
	EvL1Miss
	EvL2Hit
	EvL2Miss

	// TLB activity. EvTLBAbort is the paper's Section 3 abort: a V-cache
	// hit cancels the translation started in parallel, so the TLB is never
	// consulted (the V-R organization's headline saving).
	EvTLBHit
	EvTLBMiss
	EvTLBAbort

	// Synonym resolutions at the second level (Section 3, Table 7's
	// "considerably less than 1%" claim). Aux carries nothing; the kinds
	// mirror core.SynonymKind.
	EvSynSameSet
	EvSynMove
	EvSynCross
	EvSynBuffered

	// A dirty victim leaving the first level (Tables 2-3). Aux bit 0 marks
	// a swapped-valid victim, bit 1 an eager context-switch flush.
	EvWriteBack

	// Write-buffer traffic: enqueue, age-out drain into the R-cache
	// (write-back(r-pointer)), synonym/invalidation cancel, coherence
	// flush, and a push that found the buffer full.
	EvWBEnqueue
	EvWBDrain
	EvWBCancel
	EvWBFlush
	EvWBStall

	// A first-level child invalidated because its second-level parent was
	// replaced (the relaxed-inclusion fallback).
	EvInclusionInval

	// Coherence messages reaching the first level (Tables 11-13, the
	// paper's Table 4 R->V messages), the no-inclusion baseline's
	// unfiltered bus probe, and a bus transaction the second level
	// absorbed without disturbing the first level (the shielding effect).
	EvCohInvalidate
	EvCohFlush
	EvCohInvalidateBuffer
	EvCohFlushBuffer
	EvCohUpdate
	EvCohProbe
	EvShielded

	// Bus transactions, by kind. Aux carries the byte size.
	EvBusRead
	EvBusReadMod
	EvBusInvalidate
	EvBusUpdate

	// DMA block transfers (the paper's problem #4: devices speak physical
	// addresses).
	EvDMARead
	EvDMAWrite

	// A context switch. Aux: 0 = lazy swapped-valid flush, 1 = eager
	// flush, 2 = no flush needed (physically-addressed or PID-tagged L1).
	EvCtxSwitch

	// Victim-cache activity (the Jouppi-style layer between L1 and L2):
	// a first-level miss served from the victim cache, and a first-level
	// victim parked there. Aux carries the data token.
	EvVictimHit
	EvVictimInsert

	// A first-level line evicted because the reverse-lookup synonym table
	// ran out of capacity (the RLT strategy's extra misses; a dirty line
	// additionally emits EvWriteBack with the WBRLT bit).
	EvRLTEvict

	// The three Table 4 V-cache/R-cache signals no other event reports
	// (DESIGN.md §9 maps every signal to its kind), emitted only by the
	// inclusive controllers: replacement, as a first-level miss picks a
	// present victim (PA is the victim's block); data supply(r-pointer), as
	// the R-cache fills a miss that found no first-level copy (the other
	// outcome of the step whose synonym outcomes are the EvSyn* kinds); and
	// invack, as a write to a clean first-level line clears coherence.
	EvL1Replace
	EvDataSupply
	EvInvAck

	// Timing charges from the cycle engine (internal/cycles). Aux carries
	// the cycles charged; EvTimeAccess additionally sets Access to the
	// reference class. The sum of a CPU's Aux values per kind equals the
	// engine's per-CPU breakdown counters exactly.
	EvTimeAccess
	EvTimeTLBMiss
	EvTimeBusWait
	EvTimeWBStall
	EvTimeCtxSwitch

	// NumKinds bounds the kind space; it is not a valid event kind.
	NumKinds
)

// Context-switch flush modes carried in EvCtxSwitch's Aux field.
const (
	CtxLazy  = 0
	CtxEager = 1
	CtxNone  = 2
)

// EvWriteBack Aux bits.
const (
	WBSwapped = 1 << 0
	WBEager   = 1 << 1
	WBRLT     = 1 << 2
)

var kindNames = [NumKinds]string{
	EvL1Hit:               "l1-hit",
	EvL1Miss:              "l1-miss",
	EvL2Hit:               "l2-hit",
	EvL2Miss:              "l2-miss",
	EvTLBHit:              "tlb-hit",
	EvTLBMiss:             "tlb-miss",
	EvTLBAbort:            "tlb-abort",
	EvSynSameSet:          "syn-sameset",
	EvSynMove:             "syn-move",
	EvSynCross:            "syn-cross",
	EvSynBuffered:         "syn-buffered",
	EvWriteBack:           "write-back",
	EvWBEnqueue:           "wb-enqueue",
	EvWBDrain:             "wb-drain",
	EvWBCancel:            "wb-cancel",
	EvWBFlush:             "wb-flush",
	EvWBStall:             "wb-stall",
	EvInclusionInval:      "inclusion-inval",
	EvCohInvalidate:       "coh-invalidate",
	EvCohFlush:            "coh-flush",
	EvCohInvalidateBuffer: "coh-invalidate-buffer",
	EvCohFlushBuffer:      "coh-flush-buffer",
	EvCohUpdate:           "coh-update",
	EvCohProbe:            "coh-probe",
	EvShielded:            "shielded",
	EvBusRead:             "bus-read",
	EvBusReadMod:          "bus-readmod",
	EvBusInvalidate:       "bus-invalidate",
	EvBusUpdate:           "bus-update",
	EvDMARead:             "dma-read",
	EvDMAWrite:            "dma-write",
	EvCtxSwitch:           "ctx-switch",
	EvVictimHit:           "victim-hit",
	EvVictimInsert:        "victim-insert",
	EvRLTEvict:            "rlt-evict",
	EvL1Replace:           "l1-replace",
	EvDataSupply:          "data-supply",
	EvInvAck:              "invack",
	EvTimeAccess:          "time-access",
	EvTimeTLBMiss:         "time-tlb-miss",
	EvTimeBusWait:         "time-bus-wait",
	EvTimeWBStall:         "time-wb-stall",
	EvTimeCtxSwitch:       "time-ctx-switch",
}

// String returns the kind's stable name (used in JSON reports and event
// filters).
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Category groups kinds into the lanes used by exporters and filters:
// access, tlb, synonym, writebuf, coherence, bus, dma, ctx, victim, time.
func (k Kind) Category() string {
	switch k {
	case EvL1Hit, EvL1Miss, EvL2Hit, EvL2Miss, EvL1Replace, EvDataSupply:
		return "access"
	case EvTLBHit, EvTLBMiss, EvTLBAbort:
		return "tlb"
	case EvSynSameSet, EvSynMove, EvSynCross, EvSynBuffered:
		return "synonym"
	case EvWriteBack, EvWBEnqueue, EvWBDrain, EvWBCancel, EvWBFlush, EvWBStall:
		return "writebuf"
	case EvInclusionInval, EvCohInvalidate, EvCohFlush, EvCohInvalidateBuffer,
		EvCohFlushBuffer, EvCohUpdate, EvCohProbe, EvShielded, EvInvAck:
		return "coherence"
	case EvBusRead, EvBusReadMod, EvBusInvalidate, EvBusUpdate:
		return "bus"
	case EvDMARead, EvDMAWrite:
		return "dma"
	case EvCtxSwitch:
		return "ctx"
	case EvVictimHit, EvVictimInsert:
		return "victim"
	case EvRLTEvict:
		return "synonym"
	case EvTimeAccess, EvTimeTLBMiss, EvTimeBusWait, EvTimeWBStall, EvTimeCtxSwitch:
		return "time"
	default:
		return "other"
	}
}

// IsTiming reports whether k is a cycle-charge event mirrored from the
// timing engine (internal/cycles). For these kinds Aux carries the cycles
// charged, and the per-CPU sum of Aux values reconstructs the engine's
// clocks exactly — the property the telemetry layer's span boundaries and
// attribution reconciliation are built on.
func (k Kind) IsTiming() bool {
	return k >= EvTimeAccess && k <= EvTimeCtxSwitch
}

// Event is one observed mechanism activation.
type Event struct {
	Seq    uint64           // global emission order, 1-based (stamped by the Probe)
	Ref    uint64           // reference index when emitted, 1-based (0: outside a run)
	CPU    int              // bus id of the component the event belongs to
	Kind   Kind             //
	Access stats.AccessKind // reference class, meaningful for access events
	VA     addr.VAddr       // virtual address, when known
	PA     addr.PAddr       // physical address, when known
	Aux    uint64           // kind-specific detail (token, size, flush mode, ...)
}

// String renders the event for the human-readable log.
func (e Event) String() string {
	s := fmt.Sprintf("%8d ref=%-8d cpu%d %-21s", e.Seq, e.Ref, e.CPU, e.Kind)
	switch e.Kind {
	case EvL1Hit, EvL1Miss, EvL2Hit, EvL2Miss:
		s += fmt.Sprintf(" %-11s va=%#x pa=%#x", e.Access, uint64(e.VA), uint64(e.PA))
	case EvCtxSwitch:
		mode := [...]string{"lazy", "eager", "none"}[e.Aux]
		s += fmt.Sprintf(" flush=%s", mode)
	case EvTimeAccess:
		s += fmt.Sprintf(" %-11s cycles=%d", e.Access, e.Aux)
	case EvTimeTLBMiss, EvTimeBusWait, EvTimeWBStall, EvTimeCtxSwitch:
		s += fmt.Sprintf(" cycles=%d", e.Aux)
	default:
		if e.VA != 0 {
			s += fmt.Sprintf(" va=%#x", uint64(e.VA))
		}
		if e.PA != 0 {
			s += fmt.Sprintf(" pa=%#x", uint64(e.PA))
		}
	}
	return s
}
