package audit

import (
	"cmp"
	"fmt"
	"slices"
)

// Check verifies every invariant against the snapshot and returns the
// violations found, per-CPU findings first (in CPU order), then machine-wide
// coherence findings (in block-address order). A clean machine returns nil.
func (s *Snapshot) Check() []Violation {
	c := &checker{}
	for _, cs := range s.CPUs {
		c.checkCPU(cs)
	}
	c.checkCrossCPU(s)
	return c.out
}

type checker struct {
	out []Violation
}

// add records one violation. Callers build loc only on this path, so a
// structure that checks clean costs no formatting.
func (c *checker) add(inv Invariant, cpu int, loc, format string, args ...any) {
	c.out = append(c.out, Violation{
		Invariant: inv,
		CPU:       cpu,
		Location:  loc,
		Detail:    fmt.Sprintf(format, args...),
	})
}

func vloc(cache, set, way int) string { return fmt.Sprintf("V%d[%d.%d]", cache, set, way) }
func rloc(set, way, sub int) string   { return fmt.Sprintf("R[%d.%d.%d]", set, way, sub) }

// checkCPU runs every single-hierarchy invariant.
func (c *checker) checkCPU(cs *CPUSnapshot) {
	if !cs.Inclusive {
		c.checkNoInclusion(cs)
		c.checkVictim(cs)
		if cs.HasRLT || len(cs.RLT) > 0 {
			c.add(InvRLTReciprocity, cs.CPU, "RLT",
				"reverse-lookup table present outside the V-R organization")
		}
		c.checkTLB(cs)
		return
	}

	rIndex := make(map[[2]int]*RLine, len(cs.RLines))
	for i := range cs.RLines {
		rl := &cs.RLines[i]
		rIndex[[2]int{rl.Set, rl.Way}] = rl
	}
	children := 0
	for vi := range cs.VCaches {
		children += len(cs.VCaches[vi].Lines)
	}
	vIndex := make(map[[3]int]*VLine, children)
	// Forward pass: every first-level line against its R-cache parent.
	seenPA := make(map[uint64][3]int, children)
	for vi := range cs.VCaches {
		vcs := &cs.VCaches[vi]
		for li := range vcs.Lines {
			vl := &vcs.Lines[li]
			key := [3]int{vcs.Cache, vl.Set, vl.Way}
			vIndex[key] = vl
			loc := func() string { return vloc(vcs.Cache, vl.Set, vl.Way) }
			if vl.SV && !cs.LazyFlush {
				c.add(InvSwappedValid, cs.CPU, loc(),
					"swapped-valid line outside the lazy-flush organization")
			}
			rl, ok := rIndex[[2]int{vl.RSet, vl.RWay}]
			if !ok {
				c.add(InvInclusion, cs.CPU, loc(),
					"parent %s not present", rloc(vl.RSet, vl.RWay, vl.RSub))
				continue
			}
			if vl.RSub < 0 || vl.RSub >= len(rl.Subs) {
				c.add(InvReciprocity, cs.CPU, loc(),
					"r-pointer sub %d out of range (%d subentries)", vl.RSub, len(rl.Subs))
				continue
			}
			sub := &rl.Subs[vl.RSub]
			if !sub.Inclusion {
				c.add(InvInclusion, cs.CPU, loc(),
					"parent %s inclusion bit clear", rloc(vl.RSet, vl.RWay, vl.RSub))
			} else if sub.VCache != vcs.Cache || sub.VSet != vl.Set || sub.VWay != vl.Way {
				c.add(InvReciprocity, cs.CPU, loc(),
					"parent %s v-pointer %s does not point back",
					rloc(vl.RSet, vl.RWay, vl.RSub), vloc(sub.VCache, sub.VSet, sub.VWay))
			}
			if sub.VDirty != vl.Dirty {
				c.add(InvDirtyBits, cs.CPU, loc(),
					"dirty %v but parent VDirty %v", vl.Dirty, sub.VDirty)
			}
			pa := rl.Addr + uint64(vl.RSub)*cs.L1Block
			if prev, dup := seenPA[pa]; dup {
				c.add(InvUniqueCopy, cs.CPU, loc(),
					"physical block %#x also held by %s", pa, vloc(prev[0], prev[1], prev[2]))
			} else {
				seenPA[pa] = key
			}
			if cs.Virtual {
				if !vl.Mapped {
					c.add(InvTranslation, cs.CPU, loc(),
						"vbase %#x pid %d unmapped", vl.VBase, vl.PID)
				} else if vl.MMUPA != pa {
					c.add(InvTranslation, cs.CPU, loc(),
						"vbase %#x translates to %#x but r-pointer says %#x",
						vl.VBase, vl.MMUPA, pa)
				}
			}
		}
	}

	// Reverse pass: every subentry's pointers, bits and counts.
	wbIndex := make(map[[3]int]bool, len(cs.WriteBuffer))
	for _, e := range cs.WriteBuffer {
		wbIndex[[3]int{e.RSet, e.RWay, e.RSub}] = true
	}
	inclusionBits, bufferBits := 0, 0
	for i := range cs.RLines {
		rl := &cs.RLines[i]
		modified := false
		for si := range rl.Subs {
			sub := &rl.Subs[si]
			loc := func() string { return rloc(rl.Set, rl.Way, si) }
			if sub.Inclusion {
				inclusionBits++
				child, ok := vIndex[[3]int{sub.VCache, sub.VSet, sub.VWay}]
				if !ok {
					c.add(InvReciprocity, cs.CPU, loc(),
						"v-pointer %s to absent line", vloc(sub.VCache, sub.VSet, sub.VWay))
				} else if child.RSet != rl.Set || child.RWay != rl.Way || child.RSub != si {
					c.add(InvReciprocity, cs.CPU, loc(),
						"child r-pointer %s does not round-trip",
						rloc(child.RSet, child.RWay, child.RSub))
				}
				if sub.Buffer {
					c.add(InvBufferBit, cs.CPU, loc(), "inclusion and buffer bits both set")
				}
			}
			if sub.Buffer {
				bufferBits++
				if !wbIndex[[3]int{rl.Set, rl.Way, si}] {
					c.add(InvBufferBit, cs.CPU, loc(), "buffer bit set but nothing buffered")
				}
				if !sub.VDirty {
					c.add(InvDirtyBits, cs.CPU, loc(), "buffered but VDirty clear")
				}
			}
			if sub.VDirty && !sub.Inclusion && !sub.Buffer {
				c.add(InvDirtyBits, cs.CPU, loc(), "VDirty without child or buffer")
			}
			if sub.VDirty || sub.RDirty || sub.Buffer {
				modified = true
			}
		}
		if modified && rl.State != StatePrivate {
			c.add(InvCoherence, cs.CPU, fmt.Sprintf("R[%d.%d]", rl.Set, rl.Way),
				"modified block %#x held %s", rl.Addr, rl.State)
		}
	}
	if inclusionBits != children {
		c.add(InvInclusion, cs.CPU, "R-cache",
			"%d inclusion bits but %d first-level lines", inclusionBits, children)
	}
	if bufferBits != len(cs.WriteBuffer) {
		c.add(InvBufferBit, cs.CPU, "write buffer",
			"%d buffer bits but %d buffered entries", bufferBits, len(cs.WriteBuffer))
	}
	for _, e := range cs.WriteBuffer {
		rl, ok := rIndex[[2]int{e.RSet, e.RWay}]
		if !ok || e.RSub < 0 || e.RSub >= len(rl.Subs) || !rl.Subs[e.RSub].Buffer {
			c.add(InvBufferBit, cs.CPU, rloc(e.RSet, e.RWay, e.RSub),
				"buffered entry without a matching buffer bit")
		}
	}
	c.checkVictim(cs)
	c.checkRLT(cs, children, vIndex, rIndex)
	c.checkTLB(cs)
}

// checkVictim verifies the victim-cache invariant on any organization:
// every parked entry names a block that is absent from the first level,
// present in the second, and carries the second level's current token (or
// the in-flight buffered write-back's).
func (c *checker) checkVictim(cs *CPUSnapshot) {
	if !cs.HasVictim && len(cs.Victim) == 0 {
		return
	}
	// What each parked address resolves to, found in one pass over the
	// levels: its first-level copy (an L1 line, or the v-pointer of an
	// inclusive subentry, which wins over an L1 line) and its second-level
	// subentry. The last match of each kind wins.
	type parked struct {
		held            bool
		l1              bool // the copy is an L1 line, else a V-cache line
		cache, set, way int
		sub             *RSub
		rl              *RLine
		si              int
	}
	at := make(map[uint64]*parked, len(cs.Victim))
	for i := range cs.Victim {
		if at[cs.Victim[i].PA] == nil {
			at[cs.Victim[i].PA] = &parked{}
		}
	}
	for i := range cs.L1Lines {
		ll := &cs.L1Lines[i]
		if p := at[ll.Addr]; p != nil {
			p.held, p.l1, p.set, p.way = true, true, ll.Set, ll.Way
		}
	}
	for i := range cs.RLines {
		rl := &cs.RLines[i]
		for si := range rl.Subs {
			p := at[rl.Addr+uint64(si)*cs.L1Block]
			if p == nil {
				continue
			}
			sub := &rl.Subs[si]
			p.sub, p.rl, p.si = sub, rl, si
			if sub.Inclusion {
				p.held, p.l1, p.cache, p.set, p.way = true, false, sub.VCache, sub.VSet, sub.VWay
			}
		}
	}
	wbToken := make(map[[3]int]uint64, len(cs.WriteBuffer))
	for _, e := range cs.WriteBuffer {
		wbToken[[3]int{e.RSet, e.RWay, e.RSub}] = e.Token
	}
	for i := range cs.Victim {
		ve := &cs.Victim[i]
		p := at[ve.PA]
		loc := func() string { return fmt.Sprintf("VC[%#x]", ve.PA) }
		if p.held {
			where := vloc(p.cache, p.set, p.way)
			if p.l1 {
				where = fmt.Sprintf("L1[%d.%d]", p.set, p.way)
			}
			c.add(InvVictimExclusive, cs.CPU, loc(),
				"parked block also resident at the first level (%s)", where)
			continue
		}
		if p.sub == nil {
			c.add(InvVictimExclusive, cs.CPU, loc(),
				"parked block not contained in the second level")
			continue
		}
		want := p.sub.Token
		if p.sub.Buffer {
			want = wbToken[[3]int{p.rl.Set, p.rl.Way, p.si}]
		}
		if ve.Token != want {
			c.add(InvVictimExclusive, cs.CPU, loc(),
				"parked token %d but second level holds %d", ve.Token, want)
		}
	}
}

// checkRLT verifies the reverse-lookup table's reciprocity: the table and
// the first-level lines are in bijection, each entry keyed by its line's
// physical address and agreeing with the subentry v-pointer. vIndex and
// rIndex locate the first-level and R-cache lines.
func (c *checker) checkRLT(cs *CPUSnapshot, children int, vIndex map[[3]int]*VLine, rIndex map[[2]int]*RLine) {
	if !cs.HasRLT && len(cs.RLT) == 0 {
		return
	}
	if len(cs.RLT) != children {
		c.add(InvRLTReciprocity, cs.CPU, "RLT",
			"%d table entries but %d first-level lines", len(cs.RLT), children)
	}
	for i := range cs.RLT {
		e := &cs.RLT[i]
		loc := func() string { return fmt.Sprintf("RLT[%#x]", e.PA) }
		vl, ok := vIndex[[3]int{e.VCache, e.VSet, e.VWay}]
		if !ok {
			c.add(InvRLTReciprocity, cs.CPU, loc(),
				"entry points at absent line %s", vloc(e.VCache, e.VSet, e.VWay))
			continue
		}
		rl, ok := rIndex[[2]int{vl.RSet, vl.RWay}]
		if !ok || vl.RSub < 0 || vl.RSub >= len(rl.Subs) {
			// The forward pass already reported the broken parent.
			continue
		}
		if pa := rl.Addr + uint64(vl.RSub)*cs.L1Block; pa != e.PA {
			c.add(InvRLTReciprocity, cs.CPU, loc(),
				"entry keyed %#x but its line holds %#x", e.PA, pa)
			continue
		}
		sub := &rl.Subs[vl.RSub]
		if sub.VCache != e.VCache || sub.VSet != e.VSet || sub.VWay != e.VWay {
			c.add(InvRLTReciprocity, cs.CPU, loc(),
				"entry %s disagrees with subentry v-pointer %s",
				vloc(e.VCache, e.VSet, e.VWay), vloc(sub.VCache, sub.VSet, sub.VWay))
		}
	}
}

// checkNoInclusion covers the no-inclusion baseline: the subentry inclusion
// machinery must be unused, and dirty data at either level must be private.
func (c *checker) checkNoInclusion(cs *CPUSnapshot) {
	for i := range cs.L1Lines {
		ll := &cs.L1Lines[i]
		if ll.Dirty && ll.State != StatePrivate {
			c.add(InvCoherence, cs.CPU, fmt.Sprintf("L1[%d.%d]", ll.Set, ll.Way),
				"dirty block %#x held %s", ll.Addr, ll.State)
		}
	}
	for i := range cs.RLines {
		rl := &cs.RLines[i]
		for si := range rl.Subs {
			sub := &rl.Subs[si]
			if sub.Inclusion || sub.Buffer || sub.VDirty {
				c.add(InvInclusion, cs.CPU, rloc(rl.Set, rl.Way, si),
					"inclusion machinery used in the no-inclusion baseline")
			}
			if sub.RDirty && rl.State != StatePrivate {
				c.add(InvCoherence, cs.CPU, rloc(rl.Set, rl.Way, si),
					"dirty block %#x held %s", rl.Addr+uint64(si)*cs.L1Block, rl.State)
			}
		}
	}
}

// checkTLB verifies every resident translation against the page tables.
func (c *checker) checkTLB(cs *CPUSnapshot) {
	for i := range cs.TLB {
		e := &cs.TLB[i]
		loc := func() string { return fmt.Sprintf("TLB[pid %d page %#x]", e.PID, e.VPage) }
		if !e.Mapped {
			c.add(InvTLB, cs.CPU, loc(), "cached translation for an unmapped page")
		} else if e.Frame != e.MMUFrame {
			c.add(InvTLB, cs.CPU, loc(),
				"cached frame %#x but page tables say %#x", e.Frame, e.MMUFrame)
		}
	}
}

// checkCrossCPU verifies the snooping protocol's exclusivity: no block may
// be private on one CPU while any other CPU holds an overlapping copy.
// Copies are keyed at L2-block granularity; the no-inclusion baseline's L1
// lines are aligned down, since its invalidations travel at L2-block size.
func (c *checker) checkCrossCPU(s *Snapshot) {
	if len(s.CPUs) < 2 {
		return
	}
	n := 0
	for _, cs := range s.CPUs {
		n += len(cs.RLines) + len(cs.L1Lines)
	}
	hs := make([]holder, 0, n)
	for _, cs := range s.CPUs {
		for i := range cs.RLines {
			rl := &cs.RLines[i]
			hs = append(hs, holder{block: rl.Addr, cpu: cs.CPU,
				private: rl.State == StatePrivate, set: rl.Set, way: rl.Way})
		}
		for i := range cs.L1Lines {
			ll := &cs.L1Lines[i]
			hs = append(hs, holder{block: ll.Addr &^ (cs.L2Block - 1), cpu: cs.CPU,
				private: ll.State == StatePrivate, l1: true, set: ll.Set, way: ll.Way})
		}
	}
	// A stable sort keeps each block's holders in the order gathered (CPU
	// by CPU, R-cache lines first), which is the order findings report in.
	slices.SortStableFunc(hs, func(a, b holder) int { return cmp.Compare(a.block, b.block) })
	for lo := 0; lo < len(hs); {
		hi := lo + 1
		for hi < len(hs) && hs[hi].block == hs[lo].block {
			hi++
		}
		group := hs[lo:hi]
		for _, h := range group {
			if !h.private {
				continue
			}
			for _, o := range group {
				if o.cpu != h.cpu {
					c.add(InvCoherence, -1, h.String(),
						"block %#x private here but also held by %s", h.block, o)
					break
				}
			}
		}
		lo = hi
	}
}

// holder is one CPU's copy of an L2-sized block: an R-cache line, or a
// first-level line of the no-inclusion baseline.
type holder struct {
	block    uint64
	cpu      int
	private  bool
	l1       bool
	set, way int
}

func (h holder) String() string {
	if h.l1 {
		return fmt.Sprintf("cpu %d L1[%d.%d]", h.cpu, h.set, h.way)
	}
	return fmt.Sprintf("cpu %d R[%d.%d]", h.cpu, h.set, h.way)
}
