package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/probe"
	"repro/internal/rcache"
	"repro/internal/rlt"
)

// SynonymStrategy is the seam between the fill path and the mechanism that
// locates a first-level copy of a physical block under another virtual
// address. The paper's proposal stores a v-pointer in every R-cache
// subentry (vptrStrategy); the reverse-lookup-table alternative (Desai &
// Deshmukh, arXiv 2108.00444) keeps the pointers in a separate bounded
// table instead (rltStrategy). Strategies may only differ in *performance*
// — extra evictions, state and bus traffic — never in which data a
// reference observes; the cross-organization differential harness enforces
// that.
//
// The controller keeps the subentry v-pointers as ground truth under every
// strategy (snoops, L2 replacement and the write-through path all follow
// them); a strategy's Locate answers from its own state, and the RLT
// strategy's audit invariant asserts the two agree. What a bounded table
// changes is capacity: Installed may have to evict a reverse translation,
// and with it the first-level line it named.
type SynonymStrategy interface {
	// Name labels the strategy in reports.
	Name() string
	// Locate reports where a first-level copy of the block at pa (L1-block
	// aligned) lives. se is the block's R-cache subentry.
	Locate(se *rcache.SubEntry, pa addr.PAddr) (rcache.VPtr, bool)
	// Installed records that a first-level copy of pa now lives at vp
	// (called after the subentry's inclusion bit and v-pointer are set).
	Installed(pa addr.PAddr, vp rcache.VPtr)
	// Invalidated records that the first-level copy of pa is gone.
	Invalidated(pa addr.PAddr)
}

// vptrStrategy is the paper's synonym mechanism: the v-pointer lives in
// the R-cache subentry, so Locate just reads it and the notifications are
// free. This is the default, and byte-identical to the pre-seam behaviour.
type vptrStrategy struct{}

func (vptrStrategy) Name() string { return "vptr" }

func (vptrStrategy) Locate(se *rcache.SubEntry, _ addr.PAddr) (rcache.VPtr, bool) {
	return se.VPtr, se.Inclusion
}

func (vptrStrategy) Installed(addr.PAddr, rcache.VPtr) {}

func (vptrStrategy) Invalidated(addr.PAddr) {}

// rltStrategy answers reverse lookups from a bounded set-associative table
// that mirrors the first level: one entry per present line, inserted on
// fill and removed on invalidation. Because the table is smaller than the
// first level can be, an insert may evict a reverse translation — and the
// first-level line it named must then be evicted too (written back to the
// R-cache first if dirty), since nothing can find it any more. Those
// forced evictions are the strategy's measurable cost.
type rltStrategy struct {
	h *VR
}

func (s *rltStrategy) Name() string { return "rlt" }

func (s *rltStrategy) Locate(se *rcache.SubEntry, pa addr.PAddr) (rcache.VPtr, bool) {
	vp, ok := s.h.rlt.Lookup(pa)
	// The table mirrors the first level exactly, so it must agree with the
	// subentry ground truth; a disagreement is a simulator bug, not a
	// modelled hardware state.
	if ok != se.Inclusion || (ok && vp != se.VPtr) {
		panic(fmt.Sprintf("core: rlt disagrees with subentry at %#x: table %v,%v subentry %v,%v",
			uint64(pa), vp, ok, se.VPtr, se.Inclusion))
	}
	return vp, ok
}

func (s *rltStrategy) Installed(pa addr.PAddr, vp rcache.VPtr) {
	if ev, evicted := s.h.rlt.Insert(pa, vp); evicted {
		s.h.rltEvict(ev)
	}
}

func (s *rltStrategy) Invalidated(pa addr.PAddr) {
	s.h.rlt.Remove(pa)
}

// rltEvict disposes of the first-level line whose reverse translation was
// just evicted from the table. The line is still perfectly coherent — only
// unfindable — so a dirty copy is written back into the R-cache (the
// eager-flush data path: the R-cache copy becomes the dirty one) and the
// line is invalidated. The entry itself already left the table.
func (h *VR) rltEvict(e rlt.Entry) {
	child := h.vcs[e.VP.Cache]
	l := child.Line(e.VP.Set, e.VP.Way)
	rp := l.RPtr
	se := h.rc.Sub(rp.Set, rp.Way, rp.Sub)
	if !se.Inclusion || se.VPtr != e.VP {
		panic(fmt.Sprintf("core: rlt evicted %v -> %v but subentry says %v,%v",
			uint64(e.PA), e.VP, se.VPtr, se.Inclusion))
	}
	se.Inclusion = false
	se.VPtr = rcache.VPtr{}
	if l.Dirty {
		se.Token = l.Token
		se.RDirty = true
		h.st.WriteBacks++
		h.st.WriteBackIntervals.Event()
		h.emit(probe.EvWriteBack, 0, 0, e.PA, probe.WBRLT)
		// The write-back occupies the bus like any background write.
		h.cy.BusWrite()
	}
	se.VDirty = false
	child.Invalidate(e.VP.Set, e.VP.Way)
	h.st.RLTEvictions++
	h.emit(probe.EvRLTEvict, 0, 0, e.PA, 0)
}

// victimInsert parks a first-level victim in the victim cache (when one is
// configured), with its counter and probe event.
func (h *VR) victimInsert(pa addr.PAddr, token uint64) {
	if h.vic == nil {
		return
	}
	h.vic.Insert(pa, token)
	h.st.VictimInserts++
	h.emit(probe.EvVictimInsert, 0, 0, pa, token)
}

// victimTake consults the victim cache on a first-level miss; a hit removes
// the entry (the block moves back up, keeping the levels exclusive) and is
// charged TVictim instead of t2 by the system layer.
func (h *VR) victimTake(kind statsKind, va addr.VAddr, pa addr.PAddr) bool {
	if h.vic == nil {
		return false
	}
	token, ok := h.vic.Take(pa)
	if !ok {
		return false
	}
	h.st.VictimHits++
	h.emit(probe.EvVictimHit, kind, va, pa, token)
	return true
}
