package rcache

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
)

// small returns a 2-set, 2-way R-cache with 32B lines and 16B subentries.
func small() *RCache {
	return MustNew(cache.Geometry{Size: 128, Block: 32, Assoc: 2}, 16)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(cache.Geometry{Size: 100, Block: 32, Assoc: 1}, 16); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := New(cache.Geometry{Size: 128, Block: 32, Assoc: 2}, 64); err == nil {
		t.Error("L1 block larger than L2 block accepted")
	}
	if _, err := New(cache.Geometry{Size: 128, Block: 32, Assoc: 2}, 12); err == nil {
		t.Error("non-power-of-two L1 block accepted")
	}
}

func TestSubGeometry(t *testing.T) {
	r := small()
	if r.SubsPerLine() != 2 || r.SubSize() != 16 {
		t.Fatalf("subs %d size %d", r.SubsPerLine(), r.SubSize())
	}
	if r.SubIndex(0x100) != 0 || r.SubIndex(0x110) != 1 || r.SubIndex(0x11F) != 1 {
		t.Error("SubIndex wrong")
	}
	r2 := MustNew(cache.Geometry{Size: 256, Block: 64, Assoc: 1}, 16)
	if r2.SubsPerLine() != 4 {
		t.Errorf("64/16 line should have 4 subs, got %d", r2.SubsPerLine())
	}
}

func TestEqualBlockSizes(t *testing.T) {
	r := MustNew(cache.Geometry{Size: 128, Block: 16, Assoc: 2}, 16)
	if r.SubsPerLine() != 1 {
		t.Errorf("B2 == B1 should mean 1 sub, got %d", r.SubsPerLine())
	}
}

func TestInstallLookup(t *testing.T) {
	r := small()
	if _, _, ok := r.Lookup(0x100); ok {
		t.Fatal("cold lookup hit")
	}
	vic := r.PickVictim(0x100)
	if vic.Present || !vic.Preferred {
		t.Fatalf("victim = %+v", vic)
	}
	l := r.Install(vic.Set, vic.Way, 0x100, Private)
	if l.State != Private || len(l.Subs) != 2 {
		t.Fatalf("installed line: %+v", l)
	}
	set, way, ok := r.Lookup(0x11F) // same 32B line
	if !ok || set != vic.Set || way != vic.Way {
		t.Fatal("lookup after install missed")
	}
	if _, _, ok := r.Lookup(0x120); ok {
		t.Error("next line hit")
	}
}

func TestBlockAndSubAddr(t *testing.T) {
	r := small()
	vic := r.PickVictim(0x234)
	r.Install(vic.Set, vic.Way, 0x234, Shared)
	if got := r.BlockAddr(vic.Set, vic.Way); got != 0x220 {
		t.Errorf("BlockAddr = %#x, want 0x220", uint64(got))
	}
	if got := r.SubAddr(vic.Set, vic.Way, 1); got != 0x230 {
		t.Errorf("SubAddr(1) = %#x, want 0x230", uint64(got))
	}
}

func TestInstallResetsSubs(t *testing.T) {
	r := small()
	vic := r.PickVictim(0x100)
	l := r.Install(vic.Set, vic.Way, 0x100, Private)
	l.Subs[0].Inclusion = true
	l.Subs[0].VDirty = true
	l.Subs[1].Token = 99
	l2 := r.Install(vic.Set, vic.Way, 0x300, Shared)
	for i := range l2.Subs {
		if l2.Subs[i] != (SubEntry{}) {
			t.Errorf("sub %d not reset: %+v", i, l2.Subs[i])
		}
	}
	if l2.State != Shared {
		t.Error("state not set")
	}
}

func TestVictimPrefersChildless(t *testing.T) {
	r := small()
	// Fill set of 0x100 (set index of block 8 in 2 sets: 8 % 2 = 0).
	v1 := r.PickVictim(0x100)
	r.Install(v1.Set, v1.Way, 0x100, Private)
	r.Sub(v1.Set, v1.Way, 0).Inclusion = true
	v2 := r.PickVictim(0x180) // same set (block 12 % 2 = 0)
	if v2.Set != v1.Set {
		t.Fatalf("expected same set: %d vs %d", v2.Set, v1.Set)
	}
	r.Install(v2.Set, v2.Way, 0x180, Private)
	// Set full: one line has a child, the other does not.
	vic := r.PickVictim(0x200)
	if !vic.Preferred {
		t.Fatal("childless line exists but not preferred")
	}
	if vic.Way != v2.Way {
		t.Errorf("victim way %d, want childless way %d", vic.Way, v2.Way)
	}
}

func TestVictimBufferBitBlocksPreference(t *testing.T) {
	r := small()
	v1 := r.PickVictim(0x100)
	r.Install(v1.Set, v1.Way, 0x100, Private)
	r.Sub(v1.Set, v1.Way, 1).Buffer = true
	v2 := r.PickVictim(0x180)
	r.Install(v2.Set, v2.Way, 0x180, Private)
	r.Sub(v2.Set, v2.Way, 0).Inclusion = true
	vic := r.PickVictim(0x200)
	if vic.Preferred {
		t.Error("all lines have children; preference impossible")
	}
}

func TestHasChild(t *testing.T) {
	var s SubEntry
	if s.HasChild() {
		t.Error("empty subentry has child")
	}
	s.Inclusion = true
	if !s.HasChild() {
		t.Error("inclusion not seen")
	}
	s = SubEntry{Buffer: true}
	if !s.HasChild() {
		t.Error("buffer not seen")
	}
}

func TestInvalidateClearsSubs(t *testing.T) {
	r := small()
	vic := r.PickVictim(0x100)
	r.Install(vic.Set, vic.Way, 0x100, Private)
	r.Sub(vic.Set, vic.Way, 0).Inclusion = true
	r.Sub(vic.Set, vic.Way, 0).VPtr = VPtr{0, 3, 1}
	r.Invalidate(vic.Set, vic.Way)
	if r.Present(vic.Set, vic.Way) {
		t.Fatal("line present after invalidate")
	}
	if _, _, ok := r.Lookup(0x100); ok {
		t.Fatal("lookup hit after invalidate")
	}
	// Reinstall: subs must be clean even without an intervening Install reset.
	l := r.Install(vic.Set, vic.Way, 0x500, Shared)
	if l.Subs[0].Inclusion || l.Subs[0].VPtr != (VPtr{}) {
		t.Error("stale sub state leaked")
	}
}

func TestCountAndForEach(t *testing.T) {
	r := small()
	v1 := r.PickVictim(0x000)
	r.Install(v1.Set, v1.Way, 0x000, Private)
	v2 := r.PickVictim(0x020)
	r.Install(v2.Set, v2.Way, 0x020, Shared)
	if r.CountValid() != 2 {
		t.Fatalf("CountValid = %d", r.CountValid())
	}
	states := map[State]int{}
	r.ForEachValid(func(_, _ int, l *Line) { states[l.State]++ })
	if states[Private] != 1 || states[Shared] != 1 {
		t.Errorf("states = %v", states)
	}
}

// TestSubentriesDistinct fills a cold 256K/32B R-cache with 16-byte
// first-level blocks, one line in every set, writes a distinct token into
// every subentry and reads every token back: no two lines share
// subentries, within a 256-line slab chunk or across the boundaries of
// the 32 chunks the cache takes.
func TestSubentriesDistinct(t *testing.T) {
	r := MustNew(cache.Geometry{Size: 256 << 10, Block: 32, Assoc: 1}, 16)
	sets, subs := r.Geometry().Sets(), r.SubsPerLine()
	token := func(set, sub int) uint64 { return uint64(set*subs+sub) + 1 }
	for set := 0; set < sets; set++ {
		pa := addr.PAddr(set * 32)
		vic := r.PickVictim(pa)
		l := r.Install(vic.Set, vic.Way, pa, Private)
		if len(l.Subs) != subs || cap(l.Subs) != subs {
			t.Fatalf("set %d: subentries len %d cap %d, want %d", set, len(l.Subs), cap(l.Subs), subs)
		}
		for i := range l.Subs {
			l.Subs[i].Token = token(set, i)
		}
	}
	for set := 0; set < sets; set++ {
		for i := 0; i < subs; i++ {
			if got := r.Sub(set, 0, i).Token; got != token(set, i) {
				t.Fatalf("set %d subentry %d holds token %d, want %d", set, i, got, token(set, i))
			}
		}
	}
}

func TestStateString(t *testing.T) {
	if Shared.String() != "shared" || Private.String() != "private" {
		t.Error("state names wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state should render")
	}
}

func TestVPtrString(t *testing.T) {
	if got := (VPtr{1, 2, 3}).String(); got != "V1[2.3]" {
		t.Errorf("VPtr.String = %q", got)
	}
}

func TestLocateConsistentWithSubAddr(t *testing.T) {
	r := small()
	for _, pa := range []addr.PAddr{0x0, 0x10, 0x20, 0x100, 0x3F0} {
		vic := r.PickVictim(pa)
		r.Install(vic.Set, vic.Way, pa, Private)
		sub := r.SubIndex(pa)
		got := r.SubAddr(vic.Set, vic.Way, sub)
		want := pa &^ 0xF
		if got != want {
			t.Errorf("SubAddr(%#x) = %#x, want %#x", uint64(pa), uint64(got), uint64(want))
		}
	}
}
