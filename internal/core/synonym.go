package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/probe"
	"repro/internal/rcache"
	"repro/internal/rlt"
)

// locate reports where a first-level copy of the block at pa (L1-block
// aligned) lives; se is the block's R-cache subentry. The paper's synonym
// mechanism reads the v-pointer the subentry stores. With a reverse-lookup
// table (Desai & Deshmukh, arXiv 2108.00444) the answer comes from the
// table instead. The subentry v-pointers stay the ground truth either way
// (snoops, L2 replacement and the write-through path all follow them), so
// the table must agree with them: the two mechanisms may differ only in
// performance, never in which data a reference observes.
func (h *VR) locate(se *rcache.SubEntry, pa addr.PAddr) (rcache.VPtr, bool) {
	if h.rlt == nil {
		return se.VPtr, se.Inclusion
	}
	vp, ok := h.rlt.Lookup(pa)
	// The table mirrors the first level exactly, so it must agree with the
	// subentry ground truth; a disagreement is a simulator bug, not a
	// modelled hardware state.
	if ok != se.Inclusion || (ok && vp != se.VPtr) {
		panic(fmt.Sprintf("core: rlt disagrees with subentry at %#x: table %v,%v subentry %v,%v",
			uint64(pa), vp, ok, se.VPtr, se.Inclusion))
	}
	return vp, ok
}

// rltInsert records in the reverse-lookup table, when there is one, that a
// first-level copy of pa now lives at vp (called after the subentry's
// inclusion bit and v-pointer are set). The table is smaller than the
// first level can be, so an insert may evict a reverse translation, and
// with it the first-level line it named: the table's measurable cost.
func (h *VR) rltInsert(pa addr.PAddr, vp rcache.VPtr) {
	if h.rlt == nil {
		return
	}
	if ev, evicted := h.rlt.Insert(pa, vp); evicted {
		h.rltEvict(ev)
	}
}

// rltRemove drops pa's reverse translation, when there is a table: the
// first-level copy of pa is gone.
func (h *VR) rltRemove(pa addr.PAddr) {
	if h.rlt != nil {
		h.rlt.Remove(pa)
	}
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
