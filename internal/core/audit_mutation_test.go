package core

// Mutation tests for the audit layer against live machines: run real
// references through a rig, corrupt exactly one tracked bit or pointer in
// place, and require the auditor to flag the invariant that bit protects.
// Complementing internal/audit's hand-built-snapshot tests, these prove the
// snapshot producers carry every audited bit out of the real structures.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/rcache"
	"repro/internal/vcache"
)

// requireClean fails if the machine snapshot has any violation.
func requireClean(t *testing.T, r *rig) {
	t.Helper()
	if found := machineSnapshot(r).Check(); len(found) != 0 {
		t.Fatalf("clean machine reports violations: %v", found)
	}
}

// requireFlagged asserts the auditor finds the target invariant. When exact
// is true, every finding must be of that invariant — the corruption has no
// legitimate cascade.
func requireFlagged(t *testing.T, r *rig, want audit.Invariant, exact bool) {
	t.Helper()
	found := machineSnapshot(r).Check()
	if len(found) == 0 {
		t.Fatalf("corruption of %v went undetected", want)
	}
	hit := false
	for _, v := range found {
		if v.Invariant == want {
			hit = true
		} else if exact {
			t.Errorf("unexpected %v finding: %s", v.Invariant, v)
		}
	}
	if !hit {
		t.Fatalf("corruption not attributed to %v; found %v", want, found)
	}
}

// TestEmptySnapshotDumpsNull: structures that hold nothing snapshot as nil
// slices, so a fresh machine's dump reads null for its lines, never [].
func TestEmptySnapshotDumpsNull(t *testing.T) {
	for name, mk := range map[string]mkFunc{"VR": vrMk, "NoIncl": niMk} {
		var buf bytes.Buffer
		if err := machineSnapshot(newRig(t, 1, mk, nil)).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		dump := buf.String()
		if !strings.Contains(dump, `"l2": null`) || strings.Contains(dump, "[]") {
			t.Errorf("%s: empty machine dump:\n%s", name, dump)
		}
		if name == "VR" && !strings.Contains(dump, `"lines": null`) {
			t.Errorf("%s: empty V-cache not dumped as null:\n%s", name, dump)
		}
	}
}

// vrOf unwraps the rig's hierarchy for in-place corruption.
func vrOf(t *testing.T, r *rig, cpu int) *VR {
	t.Helper()
	h, ok := r.hs[cpu].(*VR)
	if !ok {
		t.Fatalf("hierarchy %d is %T, not *VR", cpu, r.hs[cpu])
	}
	return h
}

func TestMutationInclusionBit(t *testing.T) {
	r := newRig(t, 1, vrMk, nil)
	r.read(0, 1, 0x100)
	requireClean(t, r)
	h := vrOf(t, r, 0)
	cleared := false
	h.rc.ForEachValid(func(set, way int, l *rcache.Line) {
		for i := range l.Subs {
			if !cleared && l.Subs[i].Inclusion {
				l.Subs[i].Inclusion = false
				cleared = true
			}
		}
	})
	if !cleared {
		t.Fatal("no inclusion bit to corrupt")
	}
	requireFlagged(t, r, audit.InvInclusion, true)
}

func TestMutationVPointer(t *testing.T) {
	r := newRig(t, 1, vrMk, nil)
	r.read(0, 1, 0x100)
	requireClean(t, r)
	h := vrOf(t, r, 0)
	bent := false
	h.rc.ForEachValid(func(set, way int, l *rcache.Line) {
		for i := range l.Subs {
			if !bent && l.Subs[i].Inclusion {
				// Point at the other way of the same (direct-mapped-empty)
				// set: no present line can round-trip to it.
				l.Subs[i].VPtr.Way++
				bent = true
			}
		}
	})
	if !bent {
		t.Fatal("no v-pointer to corrupt")
	}
	requireFlagged(t, r, audit.InvReciprocity, true)
}

func TestMutationBufferBit(t *testing.T) {
	// Dirty a line, then conflict it out of the direct-mapped L1 so the
	// write-back sits in the buffer with its buffer bit set.
	r := newRig(t, 1, vrMk, nil)
	r.write(0, 1, 0x100)
	r.read(0, 1, 0x100+128) // same L1 set (128-byte L1), different block
	h := vrOf(t, r, 0)
	requireClean(t, r)
	cleared := false
	h.rc.ForEachValid(func(set, way int, l *rcache.Line) {
		for i := range l.Subs {
			if !cleared && l.Subs[i].Buffer {
				l.Subs[i].Buffer = false
				cleared = true
			}
		}
	})
	if !cleared {
		t.Fatal("no buffered write-back to corrupt; eviction did not buffer")
	}
	// Clearing the buffer bit orphans the write-buffer entry (the target
	// invariant) and leaves VDirty dangling without child or buffered copy —
	// an inherent dirty-bit cascade.
	requireFlagged(t, r, audit.InvBufferBit, false)
}

func TestMutationSVBit(t *testing.T) {
	// In the physically-addressed R-R organization no line may ever be
	// swapped-valid; setting SV is the corruption.
	r := newRig(t, 1, rrMk, nil)
	r.read(0, 1, 0x100)
	requireClean(t, r)
	h := vrOf(t, r, 0)
	set := false
	for _, vc := range h.vcs {
		vc.ForEachPresent(func(s, w int, l *vcache.Line) {
			if !set {
				l.SV = true
				set = true
			}
		})
	}
	if !set {
		t.Fatal("no resident line to corrupt")
	}
	requireFlagged(t, r, audit.InvSwappedValid, true)
}

func TestMutationUniqueCopy(t *testing.T) {
	// A physically addressed first level with two ways per set. Touching
	// five pages in order (frames are handed out in touch order) and then
	// the first again leaves blocks 0x000 and 0x100 resident at both
	// levels: they share an L1 set, an R-cache set and a subentry index.
	r := newRig(t, 1, rrMk, func(o *Options) {
		o.L1 = cache.Geometry{Size: 128, Block: 16, Assoc: 2}
	})
	for _, va := range []addr.VAddr{0x000, 0x040, 0x080, 0x0C0, 0x100, 0x000} {
		r.read(0, 1, va)
	}
	requireClean(t, r)
	h := vrOf(t, r, 0)
	// Give one R-cache line its set neighbour's tag: two first-level lines,
	// each with intact pointers, now hold the same physical block.
	st := h.rc.ExportState()
	assoc := h.rc.Geometry().Assoc
	bent := false
	for set := 0; set < len(st.Ways)/assoc && !bent; set++ {
		a, b := &st.Ways[set*assoc], &st.Ways[set*assoc+1]
		if !a.Valid || !b.Valid {
			continue
		}
		for i := range a.Line.Subs {
			if a.Line.Subs[i].Inclusion && b.Line.Subs[i].Inclusion {
				b.Tag = a.Tag
				bent = true
				break
			}
		}
	}
	if !bent {
		t.Fatal("no R-cache set holds two first-level children at one subentry index")
	}
	if err := h.rc.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	requireFlagged(t, r, audit.InvUniqueCopy, true)
}

func TestMutationTranslation(t *testing.T) {
	// Two pages resident in different L1 sets; point one line's virtual
	// base at the other page, which translates elsewhere.
	r := newRig(t, 1, vrMk, nil)
	r.read(0, 1, 0x100)
	r.read(0, 1, 0x140)
	requireClean(t, r)
	h := vrOf(t, r, 0)
	bent := false
	h.vcs[0].ForEachPresent(func(set, way int, l *vcache.Line) {
		if !bent && l.VBase == 0x100 {
			l.VBase = 0x140
			bent = true
		}
	})
	if !bent {
		t.Fatal("no resident line at virtual base 0x100")
	}
	requireFlagged(t, r, audit.InvTranslation, true)
}

func TestMutationTLBFrame(t *testing.T) {
	r := newRig(t, 1, vrMk, nil)
	r.read(0, 1, 0x100)
	requireClean(t, r)
	h := vrOf(t, r, 0)
	st, stats := h.tlb.ExportState()
	bent := false
	for i := range st.Ways {
		if st.Ways[i].Valid && !bent {
			st.Ways[i].Line.Frame++
			bent = true
		}
	}
	if !bent {
		t.Fatal("no resident TLB entry to corrupt")
	}
	if err := h.tlb.RestoreState(st, stats); err != nil {
		t.Fatal(err)
	}
	requireFlagged(t, r, audit.InvTLB, true)
}

// victimMk builds a V-R hierarchy with a small victim cache parked between
// the levels; rltMk builds the reverse-lookup-table synonym variant.
func victimMk(o Options) (Hierarchy, error) { o.VictimEntries = 2; return NewVR(o) }
func rltMk(o Options) (Hierarchy, error)    { o.RLTEntries = 8; return NewVR(o) }

// parkVictim drives one conflict eviction so the victim cache holds a
// parked block, and returns the machine.
func parkVictim(t *testing.T) *rig {
	t.Helper()
	r := newRig(t, 1, victimMk, nil)
	r.write(0, 1, 0x100)
	r.read(0, 1, 0x100+128) // same direct-mapped L1 set: evicts, parks 0x100
	requireClean(t, r)
	return r
}

func TestMutationVictimToken(t *testing.T) {
	r := parkVictim(t)
	h := vrOf(t, r, 0)
	st := h.vic.ExportState()
	bent := false
	for i := range st.Entries {
		if st.Entries[i].Valid && !bent {
			st.Entries[i].Token += 7
			bent = true
		}
	}
	if !bent {
		t.Fatal("no parked victim entry to corrupt; eviction did not park")
	}
	if err := h.vic.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	requireFlagged(t, r, audit.InvVictimExclusive, true)
}

func TestMutationVictimResidency(t *testing.T) {
	r := newRig(t, 1, victimMk, nil)
	r.write(0, 1, 0x100)
	res := r.read(0, 1, 0x100+128)
	requireClean(t, r)
	h := vrOf(t, r, 0)
	st := h.vic.ExportState()
	bent := false
	for i := range st.Entries {
		if st.Entries[i].Valid && !bent {
			// Re-key the parked entry to the block that is live in the
			// first level right now: exclusivity broken by construction.
			st.Entries[i].PA = uint64(res.PA) &^ 15
			bent = true
		}
	}
	if !bent {
		t.Fatal("no parked victim entry to corrupt; eviction did not park")
	}
	if err := h.vic.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	requireFlagged(t, r, audit.InvVictimExclusive, true)
}

func TestMutationRLTDroppedEntry(t *testing.T) {
	r := newRig(t, 1, rltMk, nil)
	r.read(0, 1, 0x100)
	requireClean(t, r)
	h := vrOf(t, r, 0)
	st := h.rlt.ExportState()
	dropped := false
	for i := range st.Slots {
		if st.Slots[i].Valid && !dropped {
			st.Slots[i].Valid = false
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("no live RLT entry to corrupt")
	}
	if err := h.rlt.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	requireFlagged(t, r, audit.InvRLTReciprocity, true)
}

func TestMutationRLTBentPointer(t *testing.T) {
	r := newRig(t, 1, rltMk, nil)
	r.read(0, 1, 0x100)
	requireClean(t, r)
	h := vrOf(t, r, 0)
	st := h.rlt.ExportState()
	bent := false
	for i := range st.Slots {
		if st.Slots[i].Valid && !bent {
			// Way 1 of a direct-mapped first level does not exist: the
			// entry now points at an absent line.
			st.Slots[i].VWay++
			bent = true
		}
	}
	if !bent {
		t.Fatal("no live RLT entry to corrupt")
	}
	if err := h.rlt.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	requireFlagged(t, r, audit.InvRLTReciprocity, true)
}

func TestMutationCoherenceState(t *testing.T) {
	// Two CPUs read the same shared address; both hold the block shared.
	// Promoting one copy to private breaks cross-CPU exclusivity.
	r := newRig(t, 2, vrMk, nil)
	r.read(0, 1, 0x100)
	r.read(1, 1, 0x100)
	requireClean(t, r)
	h := vrOf(t, r, 0)
	promoted := false
	h.rc.ForEachValid(func(set, way int, l *rcache.Line) {
		if !promoted && l.State == rcache.Shared {
			l.State = rcache.Private
			promoted = true
		}
	})
	if !promoted {
		t.Fatal("no shared line to corrupt")
	}
	requireFlagged(t, r, audit.InvCoherence, true)
}

// TestMutationDetectedInAllOrgs seeds the one corruption every organization
// shares — a flipped coherence state on a commonly held block — and checks
// detection across all three hierarchies.
func TestMutationDetectedInAllOrgs(t *testing.T) {
	orgs := []struct {
		name string
		mk   mkFunc
	}{{"VR", vrMk}, {"RR", rrMk}, {"NoIncl", niMk}}
	for _, o := range orgs {
		t.Run(o.name, func(t *testing.T) {
			r := newRig(t, 2, o.mk, nil)
			r.read(0, 1, 0x100)
			r.read(1, 1, 0x100)
			requireClean(t, r)
			promoted := false
			switch h := r.hs[0].(type) {
			case *VR:
				h.rc.ForEachValid(func(set, way int, l *rcache.Line) {
					if !promoted && l.State == rcache.Shared {
						l.State = rcache.Private
						promoted = true
					}
				})
			case *RRNoInclusion:
				h.l2.ForEachValid(func(set, way int, l *rcache.Line) {
					if !promoted && l.State == rcache.Shared {
						l.State = rcache.Private
						promoted = true
					}
				})
			}
			if !promoted {
				t.Fatal("no shared line to corrupt")
			}
			requireFlagged(t, r, audit.InvCoherence, true)
		})
	}
}
