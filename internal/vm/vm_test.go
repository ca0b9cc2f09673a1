package vm

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestTranslateDeterministic(t *testing.T) {
	m1 := MustNew(4096)
	m2 := MustNew(4096)
	vas := []addr.VAddr{0x1000, 0x2000, 0x1000, 0x9234, 0x1FFF}
	for _, va := range vas {
		if m1.Translate(1, va) != m2.Translate(1, va) {
			t.Fatalf("translation of %#x differs across identical MMUs", uint64(va))
		}
	}
}

func TestTranslateStable(t *testing.T) {
	m := MustNew(4096)
	p1 := m.Translate(1, 0x5123)
	p2 := m.Translate(1, 0x5FFF)
	if m.PageGeom().PFrame(p1) != m.PageGeom().PFrame(p2) {
		t.Error("same virtual page translated to different frames")
	}
	if p3 := m.Translate(1, 0x5123); p3 != p1 {
		t.Error("retranslation changed the mapping")
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	m := MustNew(4096)
	f := func(page uint16, off uint16) bool {
		va := m.PageGeom().JoinV(uint64(page), uint64(off))
		pa := m.Translate(2, va)
		return m.PageGeom().POffset(pa) == m.PageGeom().Offset(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistinctProcessesGetDistinctFrames(t *testing.T) {
	m := MustNew(4096)
	p1 := m.Translate(1, 0x1000)
	p2 := m.Translate(2, 0x1000)
	if m.PageGeom().PFrame(p1) == m.PageGeom().PFrame(p2) {
		t.Error("two private pages share a frame")
	}
}

func TestTranslateNoPIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Translate(NoPID) did not panic")
		}
	}()
	MustNew(4096).Translate(addr.NoPID, 0)
}

func TestLookup(t *testing.T) {
	m := MustNew(4096)
	if _, ok := m.Lookup(1, 0x1000); ok {
		t.Error("Lookup before Translate should miss")
	}
	want := m.Translate(1, 0x1234)
	got, ok := m.Lookup(1, 0x1234)
	if !ok || got != want {
		t.Errorf("Lookup = %#x, %v; want %#x, true", uint64(got), ok, uint64(want))
	}
	if _, ok := m.Lookup(2, 0x1234); ok {
		t.Error("Lookup in a different space should miss")
	}
}

func TestSegmentAllocation(t *testing.T) {
	m := MustNew(4096)
	seg := m.NewSegment(3 * 4096)
	if seg.Pages() != 3 {
		t.Errorf("Pages = %d, want 3", seg.Pages())
	}
	if seg.Bytes() != 3*4096 {
		t.Errorf("Bytes = %d", seg.Bytes())
	}
	seg2 := m.NewSegment(1)
	if seg2.Pages() != 1 {
		t.Errorf("1-byte segment should round to 1 page, got %d", seg2.Pages())
	}
	seg3 := m.NewSegment(0)
	if seg3.Pages() != 1 {
		t.Errorf("0-byte segment should get 1 page, got %d", seg3.Pages())
	}
}

func TestSegmentPAddr(t *testing.T) {
	m := MustNew(4096)
	seg := m.NewSegment(2 * 4096)
	p0 := seg.PAddr(0)
	p1 := seg.PAddr(4096 + 4)
	g := m.PageGeom()
	if g.PFrame(p1) != g.PFrame(p0)+1 {
		t.Error("segment pages not physically contiguous")
	}
	if g.POffset(p1) != 4 {
		t.Errorf("offset = %d, want 4", g.POffset(p1))
	}
}

func TestSegmentPAddrOutOfRange(t *testing.T) {
	m := MustNew(4096)
	seg := m.NewSegment(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range PAddr did not panic")
		}
	}()
	seg.PAddr(4096)
}

func TestSynonymsViaSharedSegment(t *testing.T) {
	m := MustNew(4096)
	seg := m.NewSegment(2 * 4096)
	if err := m.MapShared(1, 0x10000, seg); err != nil {
		t.Fatal(err)
	}
	if err := m.MapShared(2, 0x40000, seg); err != nil {
		t.Fatal(err)
	}
	pa1 := m.Translate(1, 0x10008)
	pa2 := m.Translate(2, 0x40008)
	if pa1 != pa2 {
		t.Fatalf("shared mapping not synonymous: %#x vs %#x", uint64(pa1), uint64(pa2))
	}
	syns := m.Synonyms(pa1)
	if len(syns) != 2 {
		t.Fatalf("Synonyms = %v, want 2 sites", syns)
	}
	if syns[0].PID != 1 || syns[1].PID != 2 {
		t.Errorf("Synonyms order: %v", syns)
	}
}

func TestSamePIDSynonyms(t *testing.T) {
	m := MustNew(4096)
	seg := m.NewSegment(4096)
	if err := m.MapShared(1, 0x10000, seg); err != nil {
		t.Fatal(err)
	}
	if err := m.MapShared(1, 0x80000, seg); err != nil {
		t.Fatal(err)
	}
	if m.Translate(1, 0x10010) != m.Translate(1, 0x80010) {
		t.Error("same-process double mapping not synonymous")
	}
}

func TestMapSharedErrors(t *testing.T) {
	m := MustNew(4096)
	seg := m.NewSegment(4096)
	if err := m.MapShared(addr.NoPID, 0x1000, seg); err == nil {
		t.Error("NoPID should fail")
	}
	if err := m.MapShared(1, 0x1001, seg); err == nil {
		t.Error("unaligned base should fail")
	}
	if err := m.MapShared(1, 0x1000, seg); err != nil {
		t.Fatal(err)
	}
	if err := m.MapShared(1, 0x1000, seg); err == nil {
		t.Error("double mapping at the same base should fail")
	}
}

func TestMapSharedDoesNotClobberOnPartialOverlap(t *testing.T) {
	m := MustNew(4096)
	segA := m.NewSegment(4096)
	segB := m.NewSegment(2 * 4096)
	if err := m.MapShared(1, 0x2000, segA); err != nil {
		t.Fatal(err)
	}
	// segB would cover vpages 1 and 2; vpage 2 is taken.
	if err := m.MapShared(1, 0x1000, segB); err == nil {
		t.Fatal("overlapping map should fail")
	}
	// The original mapping must be intact and vpage 1 untouched.
	if _, ok := m.Lookup(1, 0x1000); ok {
		t.Error("failed MapShared left a partial mapping")
	}
	if _, ok := m.Lookup(1, 0x2000); !ok {
		t.Error("failed MapShared clobbered an existing mapping")
	}
}

func TestMappedPages(t *testing.T) {
	m := MustNew(4096)
	if got := m.MappedPages(1); got != nil {
		t.Errorf("unmapped space should return nil, got %v", got)
	}
	m.Translate(1, 0x5000)
	m.Translate(1, 0x2000)
	got := m.MappedPages(1)
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("MappedPages = %v, want [2 5]", got)
	}
}

func TestStats(t *testing.T) {
	m := MustNew(4096)
	m.Translate(1, 0x1000)
	m.Translate(1, 0x1004) // same page: no new allocation
	m.Translate(1, 0x2000)
	seg := m.NewSegment(2 * 4096)
	if err := m.MapShared(2, 0x0, seg); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Translations != 3 {
		t.Errorf("Translations = %d, want 3", s.Translations)
	}
	if s.Allocations != 2 {
		t.Errorf("Allocations = %d, want 2", s.Allocations)
	}
	if s.SharedMaps != 2 {
		t.Errorf("SharedMaps = %d, want 2", s.SharedMaps)
	}
	if m.FramesInUse() != 4 {
		t.Errorf("FramesInUse = %d, want 4", m.FramesInUse())
	}
}

func TestNewBadPageSize(t *testing.T) {
	if _, err := New(1000); err == nil {
		t.Fatal("page size 1000 should be rejected")
	}
}

// TestCopyFrom: a copy holds exactly the source's page tables and counters,
// diverges from it without touching it, and replaces whatever the target
// held before; a different page size is refused.
func TestCopyFrom(t *testing.T) {
	src := MustNew(4096)
	if err := src.MapShared(1, 0x40000, src.NewSegment(2*4096)); err != nil {
		t.Fatal(err)
	}
	src.Translate(1, 0x1000)
	src.Translate(2, 0x3000)
	want := src.ExportState()

	dst := MustNew(4096)
	dst.Translate(7, 0x9000) // replaced by the copy
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.ExportState(), want) {
		t.Errorf("copy = %+v, want %+v", dst.ExportState(), want)
	}
	dst.Translate(1, 0x5000)
	dst.Translate(3, 0x5000)
	if !reflect.DeepEqual(src.ExportState(), want) {
		t.Error("translating through the copy changed its source")
	}
	if got, want := dst.FramesInUse(), src.FramesInUse()+2; got != want {
		t.Errorf("copy allocated up to frame %d, want %d", got, want)
	}

	if err := MustNew(8192).CopyFrom(src); err == nil {
		t.Error("copying a 4096-byte-page MMU into an 8192-byte-page one succeeded")
	}
}
