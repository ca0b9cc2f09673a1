package core

import (
	"repro/internal/addr"
	"repro/internal/bus"
	"repro/internal/probe"
	"repro/internal/rcache"
	"repro/internal/stats"
)

// SnoopBus implements the bus-induced half of the coherence protocol
// (Section 3). Thanks to inclusion, the R-cache filters: the V-cache is
// disturbed only when it actually holds (or buffers) the block — the
// shielding effect Tables 11-13 measure. When probing, a transaction the
// R-cache absorbed without sending any message down is reported as
// shielded.
func (h *VR) SnoopBus(t bus.Txn) bus.SnoopResult {
	if h.pr == nil {
		return h.snoop(t)
	}
	before := h.st.Coherence.Total()
	res := h.snoop(t)
	if h.st.Coherence.Total() == before {
		h.emit(probe.EvShielded, 0, 0, t.Addr, uint64(t.Kind))
	}
	return res
}

// snoop dispatches one remote transaction against this hierarchy.
func (h *VR) snoop(t bus.Txn) bus.SnoopResult {
	var res bus.SnoopResult
	// Walk the transaction's range in our own L2-block strides (hierarchies
	// are homogeneous in practice, so this is a single iteration).
	for a := t.Addr; a < t.Addr+addr.PAddr(t.Size); a += addr.PAddr(h.opts.L2.Block) {
		switch t.Kind {
		case bus.Read:
			r := h.snoopRead(a)
			res.Shared = res.Shared || r.Shared
			res.Supplied = res.Supplied || r.Supplied
		case bus.Invalidate:
			h.snoopInvalidate(a)
		case bus.ReadMod:
			// Treated as a read-miss followed by an invalidation.
			r := h.snoopRead(a)
			res.Shared = res.Shared || r.Shared
			res.Supplied = res.Supplied || r.Supplied
			h.snoopInvalidate(a)
		case bus.Update:
			// Write-update protocol: refresh our copy in place. The
			// transaction covers a single first-level block.
			if h.snoopUpdate(t.Addr, t.Token) {
				res.Shared = true
			}
		}
	}
	return res
}

// snoopUpdate applies a remote write-update to our copies, reaching a
// first-level child through its v-pointer when one exists. It reports
// whether we retain a copy (so the writer keeps broadcasting).
func (h *VR) snoopUpdate(a addr.PAddr, token uint64) bool {
	set, way, ok := h.rc.Lookup(a)
	if !ok {
		return false
	}
	sub := h.rc.SubIndex(a)
	se := h.rc.Sub(set, way, sub)
	se.Token = token
	se.RDirty = false
	// A parked victim copy is stale now; drop it rather than refresh.
	h.vic.InvalidateRange(a, h.opts.L1.Block)
	if se.Buffer {
		// A buffered modified copy being updated remotely cannot happen
		// under a consistent protocol (dirty implies private), but refresh
		// it defensively rather than lose the ordering.
		h.wb.Update(rptrOf(set, way, sub), token)
		h.st.Coherence.Record(stats.MsgUpdate)
		h.emit(probe.EvCohUpdate, 0, 0, a, token)
	}
	if se.Inclusion {
		child := h.vcs[se.VPtr.Cache]
		cl := child.Line(se.VPtr.Set, se.VPtr.Way)
		cl.Token = token
		cl.Dirty = false
		se.VDirty = false
		h.st.Coherence.Record(stats.MsgUpdate)
		h.emit(probe.EvCohUpdate, 0, 0, a, token)
	}
	h.rc.Line(set, way).State = rcache.Shared
	return true
}

// snoopRead handles a remote read-miss: flush modified data (from the
// V-cache, the write buffer, or the R-cache itself) to memory, downgrade to
// shared, and acknowledge sharing.
func (h *VR) snoopRead(a addr.PAddr) bus.SnoopResult {
	set, way, ok := h.rc.Lookup(a)
	if !ok {
		return bus.SnoopResult{}
	}
	res := bus.SnoopResult{Shared: true}
	l := h.rc.Line(set, way)
	for i := range l.Subs {
		se := &l.Subs[i]
		subAddr := h.rc.SubAddr(set, way, i)
		switch {
		case se.Buffer:
			// Modified data in the write buffer: flush(buffer).
			e, found := h.wb.Flush(rptrOf(set, way, i))
			if !found {
				panic("core: snoop found buffer bit without buffered entry")
			}
			se.Token = e.Token
			h.opts.Mem.Write(subAddr, e.Token)
			se.Buffer = false
			se.VDirty = false
			h.st.Coherence.Record(stats.MsgFlushBuffer)
			h.emit(probe.EvCohFlushBuffer, 0, 0, subAddr, e.Token)
			// flush(buffer) is one of the two events that stall the
			// processor behind its write buffer: the flush occupies the
			// bus and we wait for it to complete.
			h.cy.BusWrite()
			h.cy.WBStall()
			res.Supplied = true
		case se.Inclusion && se.VDirty:
			// Modified data in the V-cache: flush(v-pointer). The child
			// keeps a now-clean copy.
			child := h.vcs[se.VPtr.Cache]
			token := child.Line(se.VPtr.Set, se.VPtr.Way).Token
			child.CleanLine(se.VPtr.Set, se.VPtr.Way)
			se.Token = token
			h.opts.Mem.Write(subAddr, token)
			h.cy.BusWrite()
			se.VDirty = false
			h.st.Coherence.Record(stats.MsgFlush)
			h.emit(probe.EvCohFlush, 0, 0, subAddr, token)
			res.Supplied = true
		case se.RDirty:
			// Modified only here: supply from the R-cache.
			h.opts.Mem.Write(subAddr, se.Token)
			h.cy.BusWrite()
			res.Supplied = true
		}
		se.RDirty = false
	}
	l.State = rcache.Shared
	return res
}

// snoopInvalidate handles a remote invalidation (or the invalidation half
// of a read-modified-write): drop the line and any first-level children or
// buffered data.
func (h *VR) snoopInvalidate(a addr.PAddr) {
	set, way, ok := h.rc.Lookup(a)
	if !ok {
		return
	}
	l := h.rc.Line(set, way)
	// The line leaves the second level, so parked victims under it go too.
	h.vic.InvalidateRange(h.rc.BlockAddr(set, way), h.opts.L2.Block)
	for i := range l.Subs {
		se := &l.Subs[i]
		if se.Buffer {
			// invalidate(buffer): the remote writer supersedes our data.
			if _, found := h.wb.Cancel(rptrOf(set, way, i)); !found {
				panic("core: invalidate found buffer bit without buffered entry")
			}
			h.st.Coherence.Record(stats.MsgInvalidateBuffer)
			h.emit(probe.EvCohInvalidateBuffer, 0, 0, a, 0)
		}
		if se.Inclusion {
			// invalidate(v-pointer): only blocks actually present at the
			// first level disturb it — the shielding effect.
			h.vcs[se.VPtr.Cache].Invalidate(se.VPtr.Set, se.VPtr.Way)
			h.rltRemove(h.rc.SubAddr(set, way, i))
			h.st.Coherence.Record(stats.MsgInvalidate)
			h.emit(probe.EvCohInvalidate, 0, 0, a, 0)
		}
	}
	h.rc.Invalidate(set, way)
}
