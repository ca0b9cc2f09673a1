package core

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/rcache"
	"repro/internal/vcache"
)

// These tests corrupt hierarchy state deliberately and assert that the
// audit checker attributes each corruption to the invariant it breaks —
// validating the validator against live machines.

func corruptibleVR(t *testing.T) (*rig, *VR) {
	t.Helper()
	r := newRig(t, 1, vrMk, nil)
	r.write(0, 1, 0x100) // one dirty resident line
	r.read(0, 1, 0x200)  // one clean resident line
	requireClean(t, r)
	return r, r.hs[0].(*VR)
}

// findResident returns the location of the first resident V line.
func findResident(h *VR) (set, way int) {
	found := false
	h.vcs[0].ForEachPresent(func(s, w int, _ *vcache.Line) {
		if !found {
			set, way = s, w
			found = true
		}
	})
	return set, way
}

func TestCheckDetectsClearedInclusion(t *testing.T) {
	r, h := corruptibleVR(t)
	set, way := findResident(h)
	rp := h.vcs[0].Line(set, way).RPtr
	h.rc.Sub(rp.Set, rp.Way, rp.Sub).Inclusion = false
	requireFlagged(t, r, audit.InvInclusion, true)
}

func TestCheckDetectsBrokenVPointer(t *testing.T) {
	r, h := corruptibleVR(t)
	set, way := findResident(h)
	rp := h.vcs[0].Line(set, way).RPtr
	h.rc.Sub(rp.Set, rp.Way, rp.Sub).VPtr = rcache.VPtr{Cache: 0, Set: set + 1, Way: way}
	requireFlagged(t, r, audit.InvReciprocity, true)
}

func TestCheckDetectsDirtyMismatch(t *testing.T) {
	r, h := corruptibleVR(t)
	set, way := findResident(h)
	l := h.vcs[0].Line(set, way)
	l.Dirty = !l.Dirty
	requireFlagged(t, r, audit.InvDirtyBits, true)
}

func TestCheckDetectsPhantomBufferBit(t *testing.T) {
	r, h := corruptibleVR(t)
	// Set a buffer bit on a childless subentry with nothing buffered.
	var done bool
	h.rc.ForEachValid(func(set, way int, l *rcache.Line) {
		if done {
			return
		}
		for i := range l.Subs {
			if !l.Subs[i].HasChild() {
				l.Subs[i].Buffer = true
				l.Subs[i].VDirty = true
				done = true
				return
			}
		}
	})
	if !done {
		t.Skip("no childless subentry available")
	}
	requireFlagged(t, r, audit.InvBufferBit, true)
}

func TestCheckDetectsDanglingVDirty(t *testing.T) {
	r, h := corruptibleVR(t)
	var done bool
	h.rc.ForEachValid(func(set, way int, l *rcache.Line) {
		if done {
			return
		}
		for i := range l.Subs {
			if !l.Subs[i].HasChild() {
				l.Subs[i].VDirty = true
				done = true
				return
			}
		}
	})
	if !done {
		t.Skip("no childless subentry available")
	}
	requireFlagged(t, r, audit.InvDirtyBits, true)
}

func TestCheckDetectsOrphanedParentLine(t *testing.T) {
	r, h := corruptibleVR(t)
	set, way := findResident(h)
	rp := h.vcs[0].Line(set, way).RPtr
	// Invalidate the parent line under the child's feet.
	h.rc.Invalidate(rp.Set, rp.Way)
	requireFlagged(t, r, audit.InvInclusion, true)
}

func TestCheckDetectsCountMismatch(t *testing.T) {
	r, h := corruptibleVR(t)
	// Mark an extra inclusion bit with a v-pointer that points at a
	// present line already owned by another subentry: the inclusion-bit
	// count exceeds the first-level line count, and the line's r-pointer
	// cannot round-trip to both subentries.
	set, way := findResident(h)
	var done bool
	h.rc.ForEachValid(func(s, w int, l *rcache.Line) {
		if done {
			return
		}
		for i := range l.Subs {
			if !l.Subs[i].HasChild() {
				l.Subs[i].Inclusion = true
				l.Subs[i].VPtr = rcache.VPtr{Cache: 0, Set: set, Way: way}
				done = true
				return
			}
		}
	})
	if !done {
		t.Skip("no spare subentry")
	}
	requireFlagged(t, r, audit.InvInclusion, false)
	requireFlagged(t, r, audit.InvReciprocity, false)
}

func TestNoInclusionCheckDetectsSharedDirty(t *testing.T) {
	r := newRig(t, 1, niMk, nil)
	r.write(0, 1, 0x100)
	h := r.hs[0].(*RRNoInclusion)
	// Force the dirty L1 line to Shared: the baseline invariant forbids it.
	corrupted := false
	h.l1.ForEachValid(func(set, way int) {
		l := h.l1.Line(set, way)
		if l.dirty {
			l.state = rcache.Shared
			corrupted = true
		}
	})
	if !corrupted {
		t.Fatal("no dirty line to corrupt")
	}
	requireFlagged(t, r, audit.InvCoherence, true)
}
