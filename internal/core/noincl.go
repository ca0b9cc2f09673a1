package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cycles"
	"repro/internal/probe"
	"repro/internal/rcache"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/victim"
)

// nl1Line is the first-level line payload of the no-inclusion baseline.
// Without inclusion the L2 cannot answer coherence questions for the L1,
// so the L1 carries its own sharing state.
type nl1Line struct {
	state rcache.State
	dirty bool
	token uint64
}

// RRNoInclusion is the paper's R-R (no incl) baseline: a physically
// addressed two-level hierarchy whose levels replace independently. The
// second level cannot filter coherence traffic, so every remote bus
// transaction probes the first-level cache — the unshielded organization
// Tables 11-13 compare against.
type RRNoInclusion struct {
	opts Options
	id   int

	l1  *cache.Cache[nl1Line]
	l2  *rcache.RCache // inclusion machinery unused; subentries carry data state
	tlb *tlb.TLB
	vic *victim.Cache // nil: no victim cache between the levels

	pid addr.PID
	st  *Stats
	pr  *probe.Probe // nil: no event emission
	cy  *cycles.CPU  // nil: no cycle accounting
}

// emit forwards one probe event attributed to this hierarchy.
func (h *RRNoInclusion) emit(k probe.Kind, acc statsKind, va addr.VAddr, pa addr.PAddr, aux uint64) {
	if h.pr == nil {
		return
	}
	h.pr.Emit(probe.Event{CPU: h.id, Kind: k, Access: acc, VA: va, PA: pa, Aux: aux})
}

var _ Hierarchy = (*RRNoInclusion)(nil)

// NewRRNoInclusion builds the baseline and attaches it to the bus. The
// organization models a unified first level (the paper's coherence tables
// use unified direct-mapped caches).
func NewRRNoInclusion(o Options) (*RRNoInclusion, error) {
	if err := o.prepare(); err != nil {
		return nil, err
	}
	l1, err := cache.New[nl1Line](o.L1, o.L1Policy, o.PolicySeed+1)
	if err != nil {
		return nil, fmt.Errorf("core: L1: %w", err)
	}
	l2, err := newRCache(o)
	if err != nil {
		return nil, err
	}
	h := &RRNoInclusion{
		opts: o,
		l1:   l1,
		l2:   l2,
		vic:  victim.New(o.VictimEntries),
		st:   newStats(),
		pr:   o.Probe,
	}
	t, err := tlb.New(o.MMU, o.TLBEntries, o.TLBAssoc)
	if err != nil {
		return nil, err
	}
	h.tlb = t
	h.id = o.Bus.Attach(h)
	h.cy = o.Cycles.CPU(h.id)
	return h, nil
}

// Stats implements Hierarchy.
func (h *RRNoInclusion) Stats() *Stats { return h.st }

// Drain implements Hierarchy; there is no write buffer to drain.
func (h *RRNoInclusion) Drain() {}

// Access implements Hierarchy.
func (h *RRNoInclusion) Access(ref trace.Ref) AccessResult {
	if ref.Kind == trace.CtxSwitch {
		h.st.CtxSwitches++
		h.pid = ref.PID
		h.emit(probe.EvCtxSwitch, 0, 0, 0, probe.CtxNone)
		return AccessResult{CtxSwitch: true}
	}
	h.st.WriteIntervals.Tick()
	h.st.WriteBackIntervals.Tick()

	kind := statKind(ref.Kind)
	pa, hit := h.tlb.Translate(ref.PID, ref.Addr)
	if hit {
		h.st.TLB.Hits++
		h.emit(probe.EvTLBHit, kind, ref.Addr, pa, 0)
	} else {
		h.st.TLB.Misses++
		h.emit(probe.EvTLBMiss, kind, ref.Addr, pa, 0)
		h.cy.TLBMiss()
	}
	paSub := pa &^ addr.PAddr(h.opts.L1.Block-1)

	set, tag := h.l1.Locate(uint64(pa))
	if way, ok := h.l1.Probe(set, tag); ok {
		h.st.L1.Record(kind, true)
		h.l1.Touch(set, way)
		l := h.l1.Line(set, way)
		h.emit(probe.EvL1Hit, kind, ref.Addr, paSub, l.token)
		if ref.Kind != trace.Write {
			return AccessResult{Kind: kind, L1Hit: true, PA: paSub, Token: l.token}
		}
		h.st.WriteIntervals.Event()
		if l.state == rcache.Shared {
			h.issueInvalidate(pa)
			l.state = rcache.Private
			// Keep our own L2 copy's state in step, if it exists.
			if s2, w2, ok2 := h.l2.Lookup(pa); ok2 {
				h.l2.Line(s2, w2).State = rcache.Private
			}
		}
		token := h.opts.Tokens.Next()
		l.dirty = true
		l.token = token
		return AccessResult{Kind: kind, L1Hit: true, PA: paSub, Token: token}
	}

	h.st.L1.Record(kind, false)
	h.emit(probe.EvL1Miss, kind, ref.Addr, paSub, 0)
	if ref.Kind == trace.Write {
		h.st.WriteIntervals.Event()
	}
	return h.fill(ref, kind, pa, paSub, set, tag)
}

func (h *RRNoInclusion) issueInvalidate(pa addr.PAddr) {
	h.opts.Bus.Issue(bus.Txn{
		Kind: bus.Invalidate,
		From: h.id,
		Addr: pa &^ addr.PAddr(h.opts.L2.Block-1),
		Size: h.opts.L2.Block,
	})
}

// fill handles a first-level miss: independent victim write-back, L2
// access, and install at both levels.
func (h *RRNoInclusion) fill(ref trace.Ref, kind statsKind, pa, paSub addr.PAddr, set int, tag uint64) AccessResult {
	isWrite := ref.Kind == trace.Write

	// Dispose of the L1 victim. Without inclusion the block may or may not
	// be in L2: a dirty victim updates the L2 copy when present, otherwise
	// it is written straight to memory.
	way, _ := h.l1.Victim(set, nil)
	if h.l1.ValidAt(set, way) {
		vl := h.l1.Line(set, way)
		vicPA := addr.PAddr(h.l1.BlockAddr(set, h.l1.TagAt(set, way)))
		inL2 := false
		if vl.dirty {
			h.st.WriteBacks++
			h.st.WriteBackIntervals.Event()
			h.emit(probe.EvWriteBack, 0, 0, vicPA, 0)
			if s2, w2, ok := h.l2.Lookup(vicPA); ok {
				se := h.l2.Sub(s2, w2, h.l2.SubIndex(vicPA))
				se.Token = vl.token
				se.RDirty = true
				inL2 = true
			} else {
				h.opts.Mem.Write(vicPA, vl.token)
				h.st.MemWritesDirect++
				h.cy.BusWrite()
			}
		} else {
			_, _, inL2 = h.l2.Lookup(vicPA)
		}
		h.l1.Invalidate(set, way)
		if inL2 && h.vic != nil {
			// Park the victim only when the second level also holds the
			// block — levels replace independently here, and the victim
			// cache's containment invariant (VC subset of L2) must hold for
			// every organization.
			h.vic.Insert(vicPA, vl.token)
			h.st.VictimInserts++
			h.emit(probe.EvVictimInsert, 0, 0, vicPA, vl.token)
		}
	}

	vhit := false
	if h.vic != nil {
		if token, ok := h.vic.Take(paSub); ok {
			vhit = true
			h.st.VictimHits++
			h.emit(probe.EvVictimHit, kind, ref.Addr, paSub, token)
		}
	}

	// Second level.
	s2, w2, l2hit := h.l2.Lookup(pa)
	h.st.L2.Record(kind, l2hit)
	if h.pr != nil {
		k := probe.EvL2Miss
		if l2hit {
			k = probe.EvL2Hit
		}
		h.emit(k, kind, ref.Addr, paSub, 0)
	}
	if l2hit {
		if isWrite && h.l2.Line(s2, w2).State == rcache.Shared {
			h.issueInvalidate(pa)
			h.l2.Line(s2, w2).State = rcache.Private
		}
	} else {
		s2, w2 = h.l2Miss(pa, isWrite)
	}
	h.l2.Touch(s2, w2)
	sub := h.l2.Sub(s2, w2, h.l2.SubIndex(pa))
	state := h.l2.Line(s2, w2).State

	token := sub.Token
	dirty := false
	if isWrite {
		token = h.opts.Tokens.Next()
		dirty = true
	}
	*h.l1.Install(set, way, tag) = nl1Line{state: state, dirty: dirty, token: token}
	return AccessResult{Kind: kind, L2Hit: l2hit, VictimHit: vhit, PA: paSub, Token: token}
}

// l2Miss replaces an L2 victim (never touching the L1 — the defining
// non-inclusive behaviour) and fills from the bus.
func (h *RRNoInclusion) l2Miss(pa addr.PAddr, isWrite bool) (set, way int) {
	vic := h.l2.PickVictim(pa)
	if vic.Present {
		l := h.l2.Line(vic.Set, vic.Way)
		// Parked victims under the departing line go with it (VC subset
		// of L2).
		h.vic.InvalidateRange(h.l2.BlockAddr(vic.Set, vic.Way), h.opts.L2.Block)
		for i := range l.Subs {
			if l.Subs[i].RDirty {
				h.opts.Mem.Write(h.l2.SubAddr(vic.Set, vic.Way, i), l.Subs[i].Token)
				h.cy.BusWrite()
			}
		}
		h.l2.Invalidate(vic.Set, vic.Way)
	}
	txn := bus.Txn{
		Kind: bus.Read,
		From: h.id,
		Addr: pa &^ addr.PAddr(h.opts.L2.Block-1),
		Size: h.opts.L2.Block,
	}
	if isWrite {
		txn.Kind = bus.ReadMod
	}
	snoop := h.opts.Bus.Issue(txn)
	state := rcache.Private
	if txn.Kind == bus.Read && snoop.Shared {
		state = rcache.Shared
	}
	l := h.l2.Install(vic.Set, vic.Way, pa, state)
	for i := range l.Subs {
		l.Subs[i].Token = h.opts.Mem.Read(h.l2.SubAddr(vic.Set, vic.Way, i))
	}
	return vic.Set, vic.Way
}

// SnoopBus implements Hierarchy. Without inclusion the L2 cannot vouch for
// the L1's contents, so every remote transaction probes the L1 — the
// unshielded disturbance the paper's Tables 11-13 count.
func (h *RRNoInclusion) SnoopBus(t bus.Txn) bus.SnoopResult {
	h.st.Coherence.Record(stats.MsgProbe)
	h.emit(probe.EvCohProbe, 0, 0, t.Addr, uint64(t.Kind))
	var res bus.SnoopResult
	// Probe the L1 in its own block strides.
	for a := t.Addr; a < t.Addr+addr.PAddr(t.Size); a += addr.PAddr(h.opts.L1.Block) {
		set, tag := h.l1.Locate(uint64(a))
		way, ok := h.l1.Probe(set, tag)
		if !ok {
			continue
		}
		l := h.l1.Line(set, way)
		switch t.Kind {
		case bus.Read:
			res.Shared = true
			if l.dirty {
				h.flushL1(a, l)
				res.Supplied = true
			}
			l.state = rcache.Shared
		case bus.Invalidate:
			h.l1.Invalidate(set, way)
		case bus.ReadMod:
			res.Shared = true
			if l.dirty {
				h.flushL1(a, l)
				res.Supplied = true
			}
			h.l1.Invalidate(set, way)
		}
	}
	// Probe the L2.
	for a := t.Addr; a < t.Addr+addr.PAddr(t.Size); a += addr.PAddr(h.opts.L2.Block) {
		s2, w2, ok := h.l2.Lookup(a)
		if !ok {
			continue
		}
		l := h.l2.Line(s2, w2)
		switch t.Kind {
		case bus.Read:
			res.Shared = true
			h.flushL2Subs(s2, w2, l, &res)
			l.State = rcache.Shared
		case bus.Invalidate:
			h.vic.InvalidateRange(h.l2.BlockAddr(s2, w2), h.opts.L2.Block)
			h.l2.Invalidate(s2, w2)
		case bus.ReadMod:
			res.Shared = true
			h.flushL2Subs(s2, w2, l, &res)
			h.vic.InvalidateRange(h.l2.BlockAddr(s2, w2), h.opts.L2.Block)
			h.l2.Invalidate(s2, w2)
		}
	}
	return res
}

// flushL1 writes a dirty L1 block to memory and, when the block is also in
// our L2, refreshes that copy so it cannot later supply stale data.
func (h *RRNoInclusion) flushL1(a addr.PAddr, l *nl1Line) {
	h.opts.Mem.Write(a, l.token)
	h.cy.BusWrite()
	l.dirty = false
	if s2, w2, ok := h.l2.Lookup(a); ok {
		se := h.l2.Sub(s2, w2, h.l2.SubIndex(a))
		se.Token = l.token
		se.RDirty = false
	}
}

func (h *RRNoInclusion) flushL2Subs(s2, w2 int, l *rcache.Line, res *bus.SnoopResult) {
	for i := range l.Subs {
		if l.Subs[i].RDirty {
			h.opts.Mem.Write(h.l2.SubAddr(s2, w2, i), l.Subs[i].Token)
			h.cy.BusWrite()
			l.Subs[i].RDirty = false
			res.Supplied = true
		}
	}
}
