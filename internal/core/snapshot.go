package core

import (
	"repro/internal/addr"
	"repro/internal/audit"
	"repro/internal/rcache"
	"repro/internal/rlt"
	"repro/internal/vcache"
	"repro/internal/victim"
	"repro/internal/writebuf"
)

// Snapshot implements Hierarchy: a point-in-time copy of the V-caches, the
// R-cache, the write buffer and the TLB for the audit layer. Translations
// are resolved here (against the MMU this hierarchy already holds) so the
// checker consumes pure data. Iteration follows the tag stores' (set, way)
// order, keeping dumps deterministic and diffable. Each slice is allocated
// once, at the structure's occupancy (see sized).
func (h *VR) Snapshot() *audit.CPUSnapshot {
	cs := &audit.CPUSnapshot{
		CPU:       h.id,
		Virtual:   h.virtual,
		Inclusive: true,
		LazyFlush: h.virtual && !h.opts.EagerCtxFlush && !h.opts.PIDTagged,
		L1Block:   h.opts.L1.Block,
		L2Block:   h.opts.L2.Block,
		RSets:     h.rc.Geometry().Sets(),
		RWays:     h.rc.Geometry().Assoc,
	}
	cs.VCaches = make([]audit.VCacheSnapshot, 0, len(h.vcs))
	for ci, vc := range h.vcs {
		g := vc.Geometry()
		vs := audit.VCacheSnapshot{Cache: ci, Sets: g.Sets(), Ways: g.Assoc,
			Lines: sized[audit.VLine](vc.CountPresent())}
		vc.ForEachPresent(func(set, way int, l *vcache.Line) {
			vl := audit.VLine{
				Set: set, Way: way,
				Dirty: l.Dirty, SV: l.SV,
				RSet: l.RPtr.Set, RWay: l.RPtr.Way, RSub: l.RPtr.Sub,
				PID: uint64(l.PID), VBase: uint64(l.VBase), Token: l.Token,
			}
			if h.virtual {
				if pa, ok := h.opts.MMU.Lookup(l.PID, l.VBase); ok {
					vl.Mapped = true
					vl.MMUPA = uint64(h.subAlign(pa))
				}
			}
			vs.Lines = append(vs.Lines, vl)
		})
		cs.VCaches = append(cs.VCaches, vs)
	}
	cs.RLines = snapshotRCache(h.rc)
	cs.WriteBuffer = sized[audit.WBEntry](h.wb.Len())
	h.wb.ForEach(func(e writebuf.Entry) {
		cs.WriteBuffer = append(cs.WriteBuffer, audit.WBEntry{
			RSet: e.RPtr.Set, RWay: e.RPtr.Way, RSub: e.RPtr.Sub, Token: e.Token,
		})
	})
	cs.TLB = snapshotTLB(h.tlb, h.opts.MMU)
	cs.HasVictim = h.vic != nil
	cs.Victim = snapshotVictim(h.vic)
	cs.HasRLT = h.rlt != nil
	cs.RLT = sized[audit.RLTEntry](h.rlt.Len())
	h.rlt.ForEach(func(e rlt.Entry) {
		cs.RLT = append(cs.RLT, audit.RLTEntry{
			PA: uint64(e.PA), VCache: e.VP.Cache, VSet: e.VP.Set, VWay: e.VP.Way,
		})
	})
	return cs
}

// Snapshot implements Hierarchy for the no-inclusion baseline: both
// physically-addressed levels with their own coherence state, plus the TLB.
func (h *RRNoInclusion) Snapshot() *audit.CPUSnapshot {
	cs := &audit.CPUSnapshot{
		CPU:     h.id,
		L1Block: h.opts.L1.Block,
		L2Block: h.opts.L2.Block,
		L1Sets:  h.l1.Sets(),
		L1Ways:  h.l1.Assoc(),
		RSets:   h.l2.Geometry().Sets(),
		RWays:   h.l2.Geometry().Assoc,
	}
	cs.L1Lines = sized[audit.L1Line](h.l1.CountValid())
	h.l1.ForEachValid(func(set, way int) {
		l := h.l1.Line(set, way)
		cs.L1Lines = append(cs.L1Lines, audit.L1Line{
			Set: set, Way: way,
			Addr:  h.l1.BlockAddr(set, h.l1.TagAt(set, way)),
			State: l.state.String(),
			Dirty: l.dirty,
			Token: l.token,
		})
	})
	cs.RLines = snapshotRCache(h.l2)
	cs.TLB = snapshotTLB(h.tlb, h.opts.MMU)
	cs.HasVictim = h.vic != nil
	cs.Victim = snapshotVictim(h.vic)
	return cs
}

// sized returns an empty slice with room for n entries: the snapshot's one
// allocation for a structure holding n. It returns nil for n = 0, so an
// empty structure dumps as null, not [].
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

func snapshotVictim(vic *victim.Cache) []audit.VictimEntry {
	out := sized[audit.VictimEntry](vic.Len())
	vic.ForEach(func(pa addr.PAddr, token uint64) {
		out = append(out, audit.VictimEntry{PA: uint64(pa), Token: token})
	})
	return out
}

// snapshotRCache copies every valid line; all lines' subentries share one
// backing array.
func snapshotRCache(rc *rcache.RCache) []audit.RLine {
	n := rc.CountValid()
	out := sized[audit.RLine](n)
	subs := make([]audit.RSub, n*rc.SubsPerLine())
	rc.ForEachValid(func(set, way int, l *rcache.Line) {
		rl := audit.RLine{
			Set: set, Way: way,
			Addr:  uint64(rc.BlockAddr(set, way)),
			State: l.State.String(),
			Subs:  subs[:len(l.Subs):len(l.Subs)],
		}
		subs = subs[len(l.Subs):]
		for i := range l.Subs {
			se := &l.Subs[i]
			rl.Subs[i] = audit.RSub{
				Sub:       i,
				Inclusion: se.Inclusion,
				Buffer:    se.Buffer,
				VDirty:    se.VDirty,
				RDirty:    se.RDirty,
				VCache:    se.VPtr.Cache,
				VSet:      se.VPtr.Set,
				VWay:      se.VPtr.Way,
				Token:     se.Token,
			}
		}
		out = append(out, rl)
	})
	return out
}

func snapshotTLB(t tlbSnapshotter, mmu mmuLookup) []audit.TLBEntry {
	out := sized[audit.TLBEntry](t.Resident())
	pg := mmu.PageGeom()
	t.ForEachResident(func(pid addr.PID, vpage, frame uint64) {
		e := audit.TLBEntry{PID: uint64(pid), VPage: vpage, Frame: frame}
		if pa, ok := mmu.Lookup(pid, pg.JoinV(vpage, 0)); ok {
			e.Mapped = true
			e.MMUFrame = pg.PFrame(pa)
		}
		out = append(out, e)
	})
	return out
}

// tlbSnapshotter and mmuLookup name just the methods the snapshot walk
// needs, so the helpers read as what they consume.
type tlbSnapshotter interface {
	Resident() int
	ForEachResident(fn func(pid addr.PID, vpage, frame uint64))
}

type mmuLookup interface {
	PageGeom() addr.PageGeom
	Lookup(pid addr.PID, va addr.VAddr) (addr.PAddr, bool)
}
