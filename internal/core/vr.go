package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/bus"
	"repro/internal/cycles"
	"repro/internal/probe"
	"repro/internal/rcache"
	"repro/internal/rlt"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vcache"
	"repro/internal/victim"
	"repro/internal/writebuf"
)

// VR is the two-level hierarchy with inclusion. With virtual=true it is the
// paper's V-R organization (virtually-addressed L1, synonym resolution at
// L2, swapped-valid context switching); with virtual=false it is the R-R
// (incl) baseline, whose L1 is physically addressed behind a per-reference
// TLB and which needs no synonym or context-switch machinery — the same
// controller code covers both, with the virtual-only paths simply never
// taken.
type VR struct {
	opts    Options
	virtual bool
	id      int

	vcs []*vcache.VCache // [0] = unified or D; [1] = I when split
	rc  *rcache.RCache
	tlb *tlb.TLB
	wb  *writebuf.Buffer
	wt  wtQueue // write-through buffer occupancy (L1WriteThrough only)

	rlt *rlt.Table    // nil: no reverse-lookup table; the v-pointers locate synonyms
	vic *victim.Cache // nil: no victim cache between the levels

	pid addr.PID
	st  *Stats
	pr  *probe.Probe // nil: no event emission
	cy  *cycles.CPU  // nil: no cycle accounting
}

// emit forwards one probe event attributed to this hierarchy. The nil
// check keeps the disabled cost to a predictable branch.
func (h *VR) emit(k probe.Kind, acc statsKind, va addr.VAddr, pa addr.PAddr, aux uint64) {
	if h.pr == nil {
		return
	}
	h.pr.Emit(probe.Event{CPU: h.id, Kind: k, Access: acc, VA: va, PA: pa, Aux: aux})
}

var _ Hierarchy = (*VR)(nil)

// NewVR builds the paper's virtual-real hierarchy and attaches it to the
// bus.
func NewVR(o Options) (*VR, error) { return newVR(o, true) }

// NewRR builds the physically-addressed baseline with inclusion and
// attaches it to the bus.
func NewRR(o Options) (*VR, error) { return newVR(o, false) }

func newVR(o Options, virtual bool) (*VR, error) {
	if err := o.prepare(); err != nil {
		return nil, err
	}
	rc, err := newRCache(o)
	if err != nil {
		return nil, err
	}
	wb, err := writebuf.New(o.WriteBufDepth, o.WriteBufLatency)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	h := &VR{
		opts:    o,
		virtual: virtual,
		rc:      rc,
		wb:      wb,
		st:      newStats(),
		pr:      o.Probe,
	}
	if h.pr != nil {
		// The buffer reports its own traffic; translate its operations
		// into probe events carrying the R-cache subentry's physical
		// address. Wired only when probing, so the disabled path pays
		// nothing inside the buffer either.
		h.wb.Observer = func(op writebuf.Op, e writebuf.Entry) {
			k := probe.EvWBEnqueue
			switch op {
			case writebuf.OpDrain:
				k = probe.EvWBDrain
			case writebuf.OpCancel:
				k = probe.EvWBCancel
			case writebuf.OpFlush:
				k = probe.EvWBFlush
			}
			h.emit(k, 0, 0, h.rc.SubAddr(e.RPtr.Set, e.RPtr.Way, e.RPtr.Sub), e.Token)
		}
	}
	h.rc.SetNaiveReplacement(o.NaiveL2Replacement)
	h.wt = wtQueue{depth: o.WriteBufDepth, latency: o.WriteBufLatency}
	if o.RLTEntries > 0 {
		tbl, err := rlt.New(o.RLTEntries, o.RLTAssoc, o.L1.Block)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		h.rlt = tbl
	}
	h.vic = victim.New(o.VictimEntries)
	t, err := tlb.New(o.MMU, o.TLBEntries, o.TLBAssoc)
	if err != nil {
		return nil, err
	}
	h.tlb = t
	for i, g := range o.sideGeoms() {
		// Offset the seed per side so split I/D caches draw independent
		// Random-replacement streams.
		vc, err := vcache.NewWithPolicy(g, o.PIDTagged, o.L1Policy, o.PolicySeed+int64(i)+1)
		if err != nil {
			return nil, err
		}
		h.vcs = append(h.vcs, vc)
	}
	h.id = o.Bus.Attach(h)
	h.cy = o.Cycles.CPU(h.id)
	return h, nil
}

// Stats implements Hierarchy.
func (h *VR) Stats() *Stats { return h.st }

// BusID returns the hierarchy's snooper id.
func (h *VR) BusID() int { return h.id }

// Virtual reports whether the first level is virtually addressed.
func (h *VR) Virtual() bool { return h.virtual }

// cacheIndex selects the first-level cache for a record kind.
func (h *VR) cacheIndex(k trace.Kind) int {
	if h.opts.Split && k == trace.IFetch {
		return 1
	}
	return 0
}

// translate runs the TLB (counting its activity) and returns the physical
// address.
func (h *VR) translate(pid addr.PID, va addr.VAddr) addr.PAddr {
	pa, hit := h.tlb.Translate(pid, va)
	if hit {
		h.st.TLB.Hits++
		h.emit(probe.EvTLBHit, 0, va, pa, 0)
	} else {
		h.st.TLB.Misses++
		h.emit(probe.EvTLBMiss, 0, va, pa, 0)
		h.cy.TLBMiss()
	}
	return pa
}

// subAlign truncates pa to its L1-block base.
func (h *VR) subAlign(pa addr.PAddr) addr.PAddr {
	return pa &^ addr.PAddr(h.opts.L1.Block-1)
}

// rptrOf bundles an R-cache coordinate.
func rptrOf(set, way, sub int) vcache.RPtr { return vcache.RPtr{Set: set, Way: way, Sub: sub} }

// Access implements Hierarchy.
func (h *VR) Access(ref trace.Ref) AccessResult {
	if ref.Kind == trace.CtxSwitch {
		h.contextSwitch(ref.PID)
		return AccessResult{CtxSwitch: true}
	}
	h.st.WriteIntervals.Tick()
	h.st.WriteBackIntervals.Tick()
	h.drainDue()
	if h.opts.L1WriteThrough {
		h.wt.tick()
	}

	kind := statKind(ref.Kind)
	ci := h.cacheIndex(ref.Kind)
	vc := h.vcs[ci]

	// The V-R organization looks up L1 by virtual address and translates
	// only on a miss; the R-R baseline translates first.
	la := ref.Addr
	var paKnown addr.PAddr
	if !h.virtual {
		paKnown = h.translate(ref.PID, ref.Addr)
		la = addr.VAddr(paKnown)
	}

	set, way, lst := vc.Lookup(ref.PID, la)
	if lst == vcache.Hit && h.virtual && !vc.PIDTagged() && vc.Line(set, way).PID != ref.PID {
		// Without PID tags, a live line of another process matches on the
		// bare virtual tag — but the same virtual address in a different
		// address space is a different physical block. The swapped-valid
		// scheme normally rules this out (a switch marks every line SV
		// before the next process runs); a trace that interleaves the
		// outgoing process's last references past the switch record would
		// otherwise alias here. Treat it as the revalidation miss it is.
		lst = vcache.MissPresent
	}
	if lst == vcache.Hit {
		h.st.L1.Record(kind, true)
		vc.Touch(set, way)
		l := vc.Line(set, way)
		pa := h.rc.SubAddr(l.RPtr.Set, l.RPtr.Way, l.RPtr.Sub)
		if h.pr != nil {
			h.emit(probe.EvL1Hit, kind, ref.Addr, pa, l.Token)
			if h.virtual {
				// The V-cache hit aborts the translation started in
				// parallel — the paper's Section 3 abort signal.
				h.emit(probe.EvTLBAbort, kind, ref.Addr, 0, 0)
			}
		}
		if ref.Kind != trace.Write {
			return AccessResult{Kind: kind, L1Hit: true, PA: pa, Token: l.Token}
		}
		h.st.WriteIntervals.Event()
		if h.opts.L1WriteThrough {
			return h.wtWrite(ref, kind, true, ci, set, way, paKnown)
		}
		token := h.opts.Tokens.Next()
		h.performWrite(vc, set, way, l.RPtr, token)
		return AccessResult{Kind: kind, L1Hit: true, PA: pa, Token: token}
	}

	h.st.L1.Record(kind, false)
	h.emit(probe.EvL1Miss, kind, ref.Addr, h.subAlign(paKnown), 0)
	if ref.Kind == trace.Write {
		h.st.WriteIntervals.Event()
		if h.opts.L1WriteThrough {
			// No-write-allocate: the write updates the R-cache directly.
			return h.wtWrite(ref, kind, false, ci, -1, -1, paKnown)
		}
	}
	return h.fill(ci, ref, kind, la, paKnown)
}

// performWrite applies a processor write to a first-level-resident block,
// running the protocol's coherence step first.
//
// Under write-invalidate this is the paper's "write hit on clean block":
// if the block is shared, remote copies are invalidated before the write
// proceeds (the invack handshake is implicit in the serial simulator), and
// the block becomes privately dirty.
//
// Under write-update a shared write instead broadcasts the new data: the
// local copy, the R-cache copy, remote copies and memory are all
// refreshed, and the block stays shared and clean (write-through
// semantics); only private blocks are written back lazily.
func (h *VR) performWrite(vc *vcache.VCache, set, way int, rp vcache.RPtr, token uint64) {
	rl := h.rc.Line(rp.Set, rp.Way)
	se := h.rc.Sub(rp.Set, rp.Way, rp.Sub)
	if rl.State == rcache.Shared {
		if h.opts.Protocol == WriteUpdate {
			subAddr := h.rc.SubAddr(rp.Set, rp.Way, rp.Sub)
			snoop := h.opts.Bus.Issue(bus.Txn{
				Kind:  bus.Update,
				From:  h.id,
				Addr:  subAddr,
				Size:  h.opts.L1.Block,
				Token: token,
			})
			h.opts.Mem.Write(subAddr, token)
			vcl := vc.Line(set, way)
			vcl.Token = token
			vc.Touch(set, way)
			se.Token = token
			se.VDirty = false
			se.RDirty = false
			if !snoop.Shared {
				// No sharer left: stop broadcasting further writes.
				rl.State = rcache.Private
			}
			return
		}
		h.opts.Bus.Issue(bus.Txn{
			Kind: bus.Invalidate,
			From: h.id,
			Addr: h.rc.BlockAddr(rp.Set, rp.Way),
			Size: h.opts.L2.Block,
		})
		rl.State = rcache.Private
	}
	if h.pr != nil && !vc.Line(set, way).Dirty {
		// The paper's invack: coherence is clear, the V-cache may update.
		h.emit(probe.EvInvAck, 0, 0, h.rc.SubAddr(rp.Set, rp.Way, rp.Sub), 0)
	}
	vc.WriteTouch(set, way, token)
	se.VDirty = true
}

// fill handles a first-level miss end to end: victim disposal, translation,
// second-level access (with coherence), synonym resolution, install, and —
// for writes — the write itself.
func (h *VR) fill(ci int, ref trace.Ref, kind statsKind, la addr.VAddr, paKnown addr.PAddr) AccessResult {
	vc := h.vcs[ci]
	isWrite := ref.Kind == trace.Write

	// 1. Choose and dispose of the first-level victim, notifying the
	// R-cache (Table 4's replacement signal).
	vic := vc.PickVictim(ref.PID, la)
	if vic.Present {
		vicPA := h.rc.SubAddr(vic.RPtr.Set, vic.RPtr.Way, vic.RPtr.Sub)
		h.emit(probe.EvL1Replace, 0, 0, vicPA, 0)
		h.evictVVictim(vic)
		// The slot is logically empty from here on; the sameset synonym
		// path below fills a different way and leaves this one free.
		vc.Invalidate(vic.Set, vic.Way)
		h.rltRemove(vicPA)
		h.victimInsert(vicPA, vic.Token)
	}

	// 2. Translate (the V-R hierarchy reaches its TLB only now).
	pa := paKnown
	if h.virtual {
		pa = h.translate(ref.PID, ref.Addr)
	}
	paSub := h.subAlign(pa)
	vhit := h.victimTake(kind, ref.Addr, paSub)

	// 3. Second-level lookup.
	rset, rway, l2hit := h.rc.Lookup(pa)
	h.st.L2.Record(kind, l2hit)
	if h.pr != nil {
		k := probe.EvL2Miss
		if l2hit {
			k = probe.EvL2Hit
		}
		h.emit(k, kind, ref.Addr, paSub, 0)
	}
	if l2hit {
		if isWrite && h.opts.Protocol == WriteInvalidate &&
			h.rc.Line(rset, rway).State == rcache.Shared {
			h.opts.Bus.Issue(bus.Txn{
				Kind: bus.Invalidate,
				From: h.id,
				Addr: h.rc.BlockAddr(rset, rway),
				Size: h.opts.L2.Block,
			})
			h.rc.Line(rset, rway).State = rcache.Private
		}
	} else {
		rset, rway = h.l2Miss(pa, isWrite)
	}
	h.rc.Touch(rset, rway)
	sub := h.rc.SubIndex(pa)
	se := h.rc.Sub(rset, rway, sub)
	rp := rptrOf(rset, rway, sub)

	// 4. Synonym resolution / data supply. locate answers "where does a
	// first-level copy live?" from the subentry's v-pointer or, when the
	// hierarchy has one, the reverse-lookup table.
	fset, fway := vic.Set, vic.Way
	syn := SynNone
	loc, resident := h.locate(se, paSub)
	switch {
	case se.Buffer:
		// The modified copy sits in the write buffer (often it was the very
		// victim evicted in step 1 — the paper's sameset case, where the
		// pending write-back is canceled). Reattach it under the new
		// virtual address.
		e, ok := h.wb.Cancel(rp)
		if !ok {
			panic("core: buffer bit set but no buffered entry")
		}
		se.Buffer = false
		vc.Install(fset, fway, la, ref.PID, rp, true, e.Token)
		se.Inclusion = true
		se.VPtr = rcache.VPtr{Cache: ci, Set: fset, Way: fway}
		h.rltInsert(paSub, se.VPtr)
		syn = SynBuffered
	case resident:
		old := loc
		if old.Cache == ci && old.Set == fset {
			// Same set: retag the existing line in place; the slot freed in
			// step 1 stays free. The copy's location is unchanged, so the
			// reverse-lookup table needs no update.
			vc.Retag(old.Set, old.Way, la, ref.PID)
			fset, fway = old.Set, old.Way
			syn = SynSameSet
		} else {
			// Different set (or the other cache of a split pair): move the
			// copy, carrying its dirty state and data.
			src := h.vcs[old.Cache]
			sl := src.Line(old.Set, old.Way)
			dirty, token := sl.Dirty, sl.Token
			src.Invalidate(old.Set, old.Way)
			vc.Install(fset, fway, la, ref.PID, rp, dirty, token)
			se.VPtr = rcache.VPtr{Cache: ci, Set: fset, Way: fway}
			h.rltInsert(paSub, se.VPtr)
			if old.Cache != ci {
				syn = SynCross
			} else {
				syn = SynMove
			}
		}
	default:
		vc.Install(fset, fway, la, ref.PID, rp, false, se.Token)
		se.Inclusion = true
		se.VPtr = rcache.VPtr{Cache: ci, Set: fset, Way: fway}
		h.rltInsert(paSub, se.VPtr)
		if vic.Present && vic.RPtr == rp {
			// The clean victim evicted in step 1 was the synonym itself
			// (the common direct-mapped sameset case): the R-cache just
			// sets the inclusion bit back and retags — no data transfer.
			syn = SynSameSet
		} else {
			// No first-level copy anywhere: plain data supply.
			h.emit(probe.EvDataSupply, kind, ref.Addr, paSub, 0)
		}
	}
	h.st.Synonyms[syn]++
	if syn != SynNone {
		h.emit(synEvent[syn], kind, ref.Addr, paSub, 0)
	}

	// 5. Perform the write.
	token := vc.Line(fset, fway).Token
	if isWrite {
		token = h.opts.Tokens.Next()
		h.performWrite(vc, fset, fway, rp, token)
	}
	return AccessResult{
		Kind:      kind,
		L2Hit:     l2hit,
		VictimHit: vhit,
		Synonym:   syn,
		PA:        paSub,
		Token:     token,
	}
}

// evictVVictim disposes of a first-level victim: a clean block just clears
// its inclusion bit; a dirty block moves to the write buffer and sets the
// buffer bit (the paper's read/write-miss replacement protocol).
func (h *VR) evictVVictim(vic vcache.Victim) {
	se := h.rc.Sub(vic.RPtr.Set, vic.RPtr.Way, vic.RPtr.Sub)
	if !se.Inclusion {
		panic(fmt.Sprintf("core: victim %v has no inclusion bit", vic.RPtr))
	}
	se.Inclusion = false
	se.VPtr = rcache.VPtr{}
	if !vic.Dirty {
		return
	}
	h.st.WriteBacks++
	h.st.WriteBackIntervals.Event()
	var aux uint64
	if vic.SV {
		h.st.SwappedWriteBacks++
		aux = probe.WBSwapped
	}
	h.emit(probe.EvWriteBack, 0, 0, h.rc.SubAddr(vic.RPtr.Set, vic.RPtr.Way, vic.RPtr.Sub), aux)
	se.Buffer = true
	if evicted, forced := h.wb.Push(vic.RPtr, vic.Token); forced {
		h.st.BufferStalls++
		h.emit(probe.EvWBStall, 0, 0, 0, 0)
		h.drainEntry(evicted)
		// The buffer was full: the processor waits for the forced drain
		// to clear the bus before its own miss can proceed.
		h.cy.WBStall()
	}
}

// l2Miss handles a second-level miss: victim disposal (relaxed inclusion),
// the bus transaction, and the fill. It returns the line's location.
func (h *VR) l2Miss(pa addr.PAddr, isWrite bool) (set, way int) {
	vic := h.rc.PickVictim(pa)
	if vic.Present {
		h.evictRVictim(vic)
	}
	txn := bus.Txn{
		Kind: bus.Read,
		From: h.id,
		Addr: addr.PAddr(uint64(pa) &^ (h.opts.L2.Block - 1)),
		Size: h.opts.L2.Block,
	}
	if isWrite && h.opts.Protocol == WriteInvalidate {
		txn.Kind = bus.ReadMod
	}
	snoop := h.opts.Bus.Issue(txn)
	state := rcache.Private
	if txn.Kind == bus.Read && snoop.Shared {
		state = rcache.Shared
	}
	l := h.rc.Install(vic.Set, vic.Way, pa, state)
	for i := range l.Subs {
		l.Subs[i].Token = h.opts.Mem.Read(h.rc.SubAddr(vic.Set, vic.Way, i))
	}
	return vic.Set, vic.Way
}

// evictRVictim writes back and invalidates a second-level victim,
// invalidating any first-level children (the paper's relaxed-inclusion
// fallback) and draining any buffered write-backs it owns.
func (h *VR) evictRVictim(vic rcache.Victim) {
	l := h.rc.Line(vic.Set, vic.Way)
	// Parked victims live under the second level; when their line leaves,
	// so do they (the VC-subset-of-L2 containment invariant).
	h.vic.InvalidateRange(h.rc.BlockAddr(vic.Set, vic.Way), h.opts.L2.Block)
	for i := range l.Subs {
		se := &l.Subs[i]
		subAddr := h.rc.SubAddr(vic.Set, vic.Way, i)
		switch {
		case se.Buffer:
			e, ok := h.wb.Cancel(rptrOf(vic.Set, vic.Way, i))
			if !ok {
				panic("core: buffer bit set but no buffered entry at L2 eviction")
			}
			h.opts.Mem.Write(subAddr, e.Token)
			h.cy.BusWrite()
		case se.Inclusion:
			child := h.vcs[se.VPtr.Cache]
			if se.VDirty {
				h.opts.Mem.Write(subAddr, child.Line(se.VPtr.Set, se.VPtr.Way).Token)
				h.cy.BusWrite()
			} else if se.RDirty {
				h.opts.Mem.Write(subAddr, se.Token)
				h.cy.BusWrite()
			}
			child.Invalidate(se.VPtr.Set, se.VPtr.Way)
			h.rltRemove(subAddr)
			h.st.InclusionInvals++
			h.st.Coherence.Record(stats.MsgInclusionInvalidate)
			h.emit(probe.EvInclusionInval, 0, 0, subAddr, 0)
		case se.RDirty:
			h.opts.Mem.Write(subAddr, se.Token)
			h.cy.BusWrite()
		}
	}
	h.rc.Invalidate(vic.Set, vic.Way)
}

// drainDue writes aged-out buffer entries back into the R-cache.
func (h *VR) drainDue() {
	h.wb.Tick()
	for {
		e, ok := h.wb.PopDue()
		if !ok {
			break
		}
		h.drainEntry(e)
	}
}

// drainEntry completes one write-back(r-pointer): the buffered data lands
// in the R-cache, whose copy becomes the dirty one.
func (h *VR) drainEntry(e writebuf.Entry) {
	se := h.rc.Sub(e.RPtr.Set, e.RPtr.Way, e.RPtr.Sub)
	if !se.Buffer {
		panic(fmt.Sprintf("core: draining %v without buffer bit", e.RPtr))
	}
	se.Buffer = false
	se.VDirty = false
	se.RDirty = true
	se.Token = e.Token
	// The drain occupies the bus but overlaps with subsequent hits: no
	// processor time is charged here.
	h.cy.BusWrite()
}

// Drain implements Hierarchy.
func (h *VR) Drain() {
	for _, e := range h.wb.DrainAll() {
		h.drainEntry(e)
	}
}

// contextSwitch implements the paper's lazy flush: mark every live line
// swapped-valid and write nothing back. With EagerCtxFlush the ablation
// behaviour — write back every dirty line and invalidate everything now —
// runs instead. The R-R baseline's physically-addressed L1 needs neither.
func (h *VR) contextSwitch(newPID addr.PID) {
	h.st.CtxSwitches++
	h.pid = newPID
	if !h.virtual || h.opts.PIDTagged {
		// Physically-addressed or PID-tagged first levels keep their
		// contents across switches.
		h.emit(probe.EvCtxSwitch, 0, 0, 0, probe.CtxNone)
		return
	}
	if !h.opts.EagerCtxFlush {
		h.emit(probe.EvCtxSwitch, 0, 0, 0, probe.CtxLazy)
		for _, vc := range h.vcs {
			vc.SwapOut()
		}
		return
	}
	h.emit(probe.EvCtxSwitch, 0, 0, 0, probe.CtxEager)
	for _, vc := range h.vcs {
		vc.ForEachPresent(func(set, way int, l *vcache.Line) {
			se := h.rc.Sub(l.RPtr.Set, l.RPtr.Way, l.RPtr.Sub)
			subAddr := h.rc.SubAddr(l.RPtr.Set, l.RPtr.Way, l.RPtr.Sub)
			if l.Dirty {
				se.Token = l.Token
				se.RDirty = true
				h.st.EagerFlushWriteBacks++
				h.st.WriteBacks++
				h.st.WriteBackIntervals.Event()
				h.emit(probe.EvWriteBack, 0, 0, subAddr, probe.WBEager)
			}
			se.VDirty = false
			se.Inclusion = false
			se.VPtr = rcache.VPtr{}
			vc.Invalidate(set, way)
			h.rltRemove(subAddr)
		})
	}
}

// statsKind aliases the stats package's access kind for brevity in
// signatures.
type statsKind = stats.AccessKind

// synEvent maps a synonym resolution (other than SynNone) to its probe
// event kind.
var synEvent = [...]probe.Kind{
	SynSameSet:  probe.EvSynSameSet,
	SynMove:     probe.EvSynMove,
	SynCross:    probe.EvSynCross,
	SynBuffered: probe.EvSynBuffered,
}
