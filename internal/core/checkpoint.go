package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/rcache"
	"repro/internal/rlt"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/vcache"
	"repro/internal/victim"
	"repro/internal/writebuf"
)

// This file is the checkpoint layer's view of a hierarchy: every bit of
// state the audit snapshot captures plus the bits it deliberately leaves
// out (LRU stamps, recency clocks, drain deadlines, counters) — enough to
// continue a run byte-for-byte identically after a restore.

// StatsState is a Stats' serializable form. All counter fields are copied
// verbatim; the interval trackers are flattened into their own states.
type StatsState struct {
	L1, L2    stats.LevelStats
	Coherence stats.CoherenceStats
	Synonyms  [5]uint64
	TLBHits   uint64
	TLBMisses uint64

	WriteBacks           uint64
	SwappedWriteBacks    uint64
	CtxSwitches          uint64
	InclusionInvals      uint64
	BufferStalls         uint64
	EagerFlushWriteBacks uint64
	MemWritesDirect      uint64
	VictimHits           uint64
	VictimInserts        uint64
	RLTEvictions         uint64

	WriteIntervals     stats.IntervalTrackerState
	WriteBackIntervals stats.IntervalTrackerState
}

// ExportState captures the counters.
func (s *Stats) ExportState() StatsState {
	return StatsState{
		L1:                   s.L1,
		L2:                   s.L2,
		Coherence:            s.Coherence,
		Synonyms:             s.Synonyms,
		TLBHits:              s.TLB.Hits,
		TLBMisses:            s.TLB.Misses,
		WriteBacks:           s.WriteBacks,
		SwappedWriteBacks:    s.SwappedWriteBacks,
		CtxSwitches:          s.CtxSwitches,
		InclusionInvals:      s.InclusionInvals,
		BufferStalls:         s.BufferStalls,
		EagerFlushWriteBacks: s.EagerFlushWriteBacks,
		MemWritesDirect:      s.MemWritesDirect,
		VictimHits:           s.VictimHits,
		VictimInserts:        s.VictimInserts,
		RLTEvictions:         s.RLTEvictions,
		WriteIntervals:       s.WriteIntervals.ExportState(),
		WriteBackIntervals:   s.WriteBackIntervals.ExportState(),
	}
}

// RestoreState replaces the counters.
func (s *Stats) RestoreState(st StatsState) error {
	if err := s.WriteIntervals.RestoreState(st.WriteIntervals); err != nil {
		return fmt.Errorf("core: write intervals: %w", err)
	}
	if err := s.WriteBackIntervals.RestoreState(st.WriteBackIntervals); err != nil {
		return fmt.Errorf("core: write-back intervals: %w", err)
	}
	s.L1 = st.L1
	s.L2 = st.L2
	s.Coherence = st.Coherence
	s.Synonyms = st.Synonyms
	s.TLB.Hits = st.TLBHits
	s.TLB.Misses = st.TLBMisses
	s.WriteBacks = st.WriteBacks
	s.SwappedWriteBacks = st.SwappedWriteBacks
	s.CtxSwitches = st.CtxSwitches
	s.InclusionInvals = st.InclusionInvals
	s.BufferStalls = st.BufferStalls
	s.EagerFlushWriteBacks = st.EagerFlushWriteBacks
	s.MemWritesDirect = st.MemWritesDirect
	s.VictimHits = st.VictimHits
	s.VictimInserts = st.VictimInserts
	s.RLTEvictions = st.RLTEvictions
	return nil
}

// NL1LineState is the exported form of the no-inclusion baseline's L1 line
// payload.
type NL1LineState struct {
	State rcache.State
	Dirty bool
	Token uint64
}

// WTQueueState is the write-through buffer's serializable occupancy.
type WTQueueState struct {
	Deadlines []uint64
	Clock     uint64
}

// HierarchyState is one hierarchy's full serializable state. The VCaches
// and WriteBuf fields are used by the V-R and R-R(incl) organizations, L1
// by the no-inclusion baseline; RCache, TLB and Stats by all three.
type HierarchyState struct {
	PID addr.PID

	VCaches []cache.State[vcache.Line]
	L1      *cache.State[NL1LineState]
	RCache  cache.State[rcache.Line]

	TLB      cache.State[tlb.EntryState]
	TLBStats tlb.Stats

	WriteBuf *writebuf.State
	WTQueue  WTQueueState

	// Victim and RLT are present exactly when the exporting hierarchy had a
	// victim cache / reverse-lookup table configured.
	Victim *victim.State
	RLT    *rlt.State

	Stats StatsState
}

// ExportState implements Hierarchy.
func (h *VR) ExportState() *HierarchyState {
	st := &HierarchyState{
		PID:    h.pid,
		RCache: h.rc.ExportState(),
		Stats:  h.st.ExportState(),
		WTQueue: WTQueueState{
			Deadlines: append([]uint64(nil), h.wt.deadlines...),
			Clock:     h.wt.clock,
		},
	}
	for _, vc := range h.vcs {
		st.VCaches = append(st.VCaches, vc.ExportState())
	}
	st.TLB, st.TLBStats = h.tlb.ExportState()
	wb := h.wb.ExportState()
	st.WriteBuf = &wb
	st.Victim = h.vic.ExportState()
	st.RLT = h.rlt.ExportState()
	return st
}

// RestoreState implements Hierarchy.
func (h *VR) RestoreState(st *HierarchyState) error {
	if len(st.VCaches) != len(h.vcs) {
		return fmt.Errorf("core: state has %d v-caches, hierarchy has %d", len(st.VCaches), len(h.vcs))
	}
	if st.L1 != nil {
		return fmt.Errorf("core: state carries a no-inclusion L1, hierarchy is V-R/R-R")
	}
	if st.WriteBuf == nil {
		return fmt.Errorf("core: state carries no write buffer, hierarchy is V-R/R-R")
	}
	for i, vc := range h.vcs {
		if err := vc.RestoreState(st.VCaches[i]); err != nil {
			return err
		}
	}
	if err := h.rc.RestoreState(st.RCache); err != nil {
		return err
	}
	if err := h.tlb.RestoreState(st.TLB, st.TLBStats); err != nil {
		return err
	}
	if err := h.wb.RestoreState(*st.WriteBuf); err != nil {
		return err
	}
	if err := h.st.RestoreState(st.Stats); err != nil {
		return err
	}
	if err := h.vic.RestoreState(st.Victim); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := h.rlt.RestoreState(st.RLT); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	h.wt.deadlines = append(h.wt.deadlines[:0], st.WTQueue.Deadlines...)
	h.wt.clock = st.WTQueue.Clock
	h.pid = st.PID
	return nil
}

// ExportState implements Hierarchy.
func (h *RRNoInclusion) ExportState() *HierarchyState {
	in := h.l1.ExportState()
	l1 := cache.State[NL1LineState]{Clock: in.Clock, Draws: in.Draws, Ways: make([]cache.Entry[NL1LineState], len(in.Ways))}
	for i, e := range in.Ways {
		l1.Ways[i] = cache.Entry[NL1LineState]{
			Tag: e.Tag, Valid: e.Valid, Stamp: e.Stamp,
			Line: NL1LineState{State: e.Line.state, Dirty: e.Line.dirty, Token: e.Line.token},
		}
	}
	st := &HierarchyState{
		PID:    h.pid,
		L1:     &l1,
		RCache: h.l2.ExportState(),
		Stats:  h.st.ExportState(),
	}
	st.TLB, st.TLBStats = h.tlb.ExportState()
	st.Victim = h.vic.ExportState()
	return st
}

// RestoreState implements Hierarchy.
func (h *RRNoInclusion) RestoreState(st *HierarchyState) error {
	if st.L1 == nil {
		return fmt.Errorf("core: state carries no no-inclusion L1")
	}
	if len(st.VCaches) != 0 || st.WriteBuf != nil || st.RLT != nil {
		return fmt.Errorf("core: state carries V-R machinery, hierarchy is the no-inclusion baseline")
	}
	in := cache.State[nl1Line]{Clock: st.L1.Clock, Draws: st.L1.Draws, Ways: make([]cache.Entry[nl1Line], len(st.L1.Ways))}
	for i, e := range st.L1.Ways {
		in.Ways[i] = cache.Entry[nl1Line]{
			Tag: e.Tag, Valid: e.Valid, Stamp: e.Stamp,
			Line: nl1Line{state: e.Line.State, dirty: e.Line.Dirty, token: e.Line.Token},
		}
	}
	if err := h.l1.RestoreState(in); err != nil {
		return err
	}
	if err := h.l2.RestoreState(st.RCache); err != nil {
		return err
	}
	if err := h.tlb.RestoreState(st.TLB, st.TLBStats); err != nil {
		return err
	}
	if err := h.st.RestoreState(st.Stats); err != nil {
		return err
	}
	if err := h.vic.RestoreState(st.Victim); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	h.pid = st.PID
	return nil
}
