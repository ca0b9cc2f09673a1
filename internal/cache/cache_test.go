package cache

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func dm16K() Geometry { return Geometry{Size: 16 << 10, Block: 16, Assoc: 1} }

func TestGeometryValidate(t *testing.T) {
	good := []Geometry{
		dm16K(),
		{Size: 256 << 10, Block: 32, Assoc: 4},
		{Size: 64, Block: 16, Assoc: 4}, // fully associative
		{Size: 512, Block: 16, Assoc: 1},
	}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", g, err)
		}
	}
	bad := []Geometry{
		{Size: 0, Block: 16, Assoc: 1},
		{Size: 1000, Block: 16, Assoc: 1},
		{Size: 16 << 10, Block: 0, Assoc: 1},
		{Size: 16 << 10, Block: 17, Assoc: 1},
		{Size: 16 << 10, Block: 16, Assoc: 0},
		{Size: 16 << 10, Block: 16, Assoc: 3},
		{Size: 16 << 10, Block: 16, Assoc: -4},
		{Size: 32, Block: 16, Assoc: 4}, // too small
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", g)
		}
	}
}

func TestGeometrySets(t *testing.T) {
	cases := []struct {
		g    Geometry
		want int
	}{
		{dm16K(), 1024},
		{Geometry{Size: 256 << 10, Block: 32, Assoc: 4}, 2048},
		{Geometry{Size: 64, Block: 16, Assoc: 4}, 1},
	}
	for _, c := range cases {
		if got := c.g.Sets(); got != c.want {
			t.Errorf("Sets(%v) = %d, want %d", c.g, got, c.want)
		}
	}
}

func TestLocateRoundTrip(t *testing.T) {
	for _, g := range []Geometry{
		dm16K(),
		{Size: 256 << 10, Block: 32, Assoc: 4},
		{Size: 64, Block: 16, Assoc: 4},
	} {
		f := func(a uint64) bool {
			set, tag := g.Locate(a)
			back := g.BlockAddr(set, tag)
			return back == a&^(g.Block-1) && set >= 0 && set < g.Sets()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("geometry %v: %v", g, err)
		}
	}
}

func TestLocateDistinguishesBlocks(t *testing.T) {
	g := dm16K()
	s1, t1 := g.Locate(0x1000)
	s2, t2 := g.Locate(0x1010)
	if s1 == s2 && t1 == t2 {
		t.Error("adjacent blocks mapped to same (set, tag)")
	}
	s3, t3 := g.Locate(0x1004)
	if s3 != s1 || t3 != t1 {
		t.Error("same-block addresses mapped differently")
	}
}

func TestGeometryString(t *testing.T) {
	if got := dm16K().String(); got != "16K/16B/1-way" {
		t.Errorf("String = %q", got)
	}
	g := Geometry{Size: 2 << 20, Block: 64, Assoc: 8}
	if got := g.String(); got != "2M/64B/8-way" {
		t.Errorf("String = %q", got)
	}
	g = Geometry{Size: 512, Block: 16, Assoc: 1}
	if got := g.String(); !strings.HasPrefix(got, "512/") {
		t.Errorf("String = %q", got)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Error("policy names wrong")
	}
	if !strings.Contains(Policy(9).String(), "9") {
		t.Error("unknown policy should include number")
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New[int](Geometry{Size: 5}, LRU, 0); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad geometry did not panic")
		}
	}()
	MustNew[int](Geometry{Size: 5}, LRU, 0)
}

// TestNewRejectsWideSet checks that New refuses a valid geometry whose sets
// are wider than ways can view, instead of panicking on the first access.
func TestNewRejectsWideSet(t *testing.T) {
	g := Geometry{Size: 2 * maxAssoc, Block: 1, Assoc: 2 * maxAssoc}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate(%v) = %v, want nil", g, err)
	}
	if _, err := New[int](g, LRU, 0); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("New(%v) error = %v, want the associativity bound", g, err)
	}
	if _, err := New[int](Geometry{Size: maxAssoc, Block: 1, Assoc: maxAssoc}, LRU, 0); err != nil {
		t.Errorf("New of a %d-way set: %v", maxAssoc, err)
	}
}

// TestNewIndexBytes checks that construction allocates one pointer a set:
// a 512K/32B direct-mapped cache (16384 sets) allocates at most 8 bytes a
// set plus 16 KB, where an index of slice headers took 24 bytes a set.
func TestNewIndexBytes(t *testing.T) {
	g := Geometry{Size: 512 << 10, Block: 32, Assoc: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := MustNew[int](g, LRU, 0)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	limit := uint64(8*g.Sets() + 16<<10)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("New(%v) allocated %d bytes for %d sets, want at most %d", g, got, g.Sets(), limit)
	}
}

// TestLinePointerStable checks Line's promise: a payload pointer keeps
// reading and writing its way after 1000 other sets are materialized.
func TestLinePointerStable(t *testing.T) {
	c := MustNew[int](Geometry{Size: 64 << 10, Block: 16, Assoc: 2}, LRU, 0) // 2048 sets
	const set, way = 5, 1
	*c.Install(set, way, 42) = 7
	p := c.Line(set, way)
	for s, n := 0, 0; n < 1000; s++ {
		if s != set {
			*c.Install(s, 0, uint64(s)) = -s
			n++
		}
	}
	if *p != 7 {
		t.Fatalf("payload read through the old pointer is %d, want 7", *p)
	}
	*p = 9
	if got := *c.Line(set, way); got != 9 {
		t.Errorf("payload written through the old pointer reads back %d, want 9", got)
	}
	if w, ok := c.Probe(set, 42); !ok || w != way {
		t.Errorf("Probe(%d, 42) = way %d, %v; want way %d", set, w, ok, way)
	}
	for s := 0; s < 1001; s++ {
		if s != set && *c.Line(s, 0) != -s {
			t.Fatalf("set %d payload %d, want %d", s, *c.Line(s, 0), -s)
		}
	}
}

func TestProbeInstall(t *testing.T) {
	c := MustNew[int](Geometry{Size: 64, Block: 16, Assoc: 2}, LRU, 0)
	if _, ok := c.Probe(0, 42); ok {
		t.Fatal("probe of empty cache hit")
	}
	w, pref := c.Victim(0, nil)
	if !pref {
		t.Error("victim in non-full set should be an invalid way (preferred)")
	}
	line := c.Install(0, w, 42)
	*line = 7
	got, ok := c.Probe(0, 42)
	if !ok || got != w {
		t.Fatalf("probe after install: way %d ok %v", got, ok)
	}
	if *c.Line(0, got) != 7 {
		t.Error("payload lost")
	}
	if c.TagAt(0, got) != 42 || !c.ValidAt(0, got) {
		t.Error("tag/valid wrong after install")
	}
}

func TestLRUVictim(t *testing.T) {
	// 2-way set; fill, touch way of tag 1, then victim must be tag 2's way.
	c := MustNew[int](Geometry{Size: 32, Block: 16, Assoc: 2}, LRU, 0)
	w1, _ := c.Victim(0, nil)
	c.Install(0, w1, 1)
	w2, _ := c.Victim(0, nil)
	c.Install(0, w2, 2)
	if w1 == w2 {
		t.Fatal("both installs picked the same way")
	}
	c.Touch(0, w1)
	v, pref := c.Victim(0, nil)
	if v != w2 {
		t.Errorf("LRU victim = way %d (tag %d), want way %d", v, c.TagAt(0, v), w2)
	}
	if !pref {
		t.Error("with nil prefer, victim should report preferred")
	}
}

func TestLRUTouchOrdering(t *testing.T) {
	c := MustNew[int](Geometry{Size: 64, Block: 16, Assoc: 4}, LRU, 0)
	for tag := uint64(1); tag <= 4; tag++ {
		w, _ := c.Victim(0, nil)
		c.Install(0, w, tag)
	}
	// Touch tags 2,3,4 -> tag 1 is LRU.
	for tag := uint64(2); tag <= 4; tag++ {
		w, ok := c.Probe(0, tag)
		if !ok {
			t.Fatalf("tag %d missing", tag)
		}
		c.Touch(0, w)
	}
	v, _ := c.Victim(0, nil)
	if c.TagAt(0, v) != 1 {
		t.Errorf("LRU victim tag = %d, want 1", c.TagAt(0, v))
	}
}

func TestFIFOIgnoresTouch(t *testing.T) {
	c := MustNew[int](Geometry{Size: 32, Block: 16, Assoc: 2}, FIFO, 0)
	w1, _ := c.Victim(0, nil)
	c.Install(0, w1, 1)
	w2, _ := c.Victim(0, nil)
	c.Install(0, w2, 2)
	c.Touch(0, w1) // FIFO: no effect
	v, _ := c.Victim(0, nil)
	if v != w1 {
		t.Errorf("FIFO victim = way %d, want first-installed way %d", v, w1)
	}
}

func TestRandomVictimDeterministicSeed(t *testing.T) {
	mk := func(seed int64) []int {
		c := MustNew[int](Geometry{Size: 64, Block: 16, Assoc: 4}, Random, seed)
		for tag := uint64(1); tag <= 4; tag++ {
			w, _ := c.Victim(0, nil)
			c.Install(0, w, tag)
		}
		var picks []int
		for i := 0; i < 16; i++ {
			v, _ := c.Victim(0, nil)
			picks = append(picks, v)
		}
		return picks
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different victim sequences")
		}
	}
}

// TestRandomSourceOnFirstDraw: only a Random cache's first victim choice
// among valid ways creates its source. LRU and FIFO caches never create
// one; a Random cache that has not drawn exports no draws and restores
// without one; and a restored cache continues the drawn sequence.
func TestRandomSourceOnFirstDraw(t *testing.T) {
	g := Geometry{Size: 64, Block: 16, Assoc: 4}
	fill := func(c *Cache[int]) {
		for tag := uint64(1); tag <= 4; tag++ {
			w, _ := c.Victim(0, nil)
			c.Install(0, w, tag)
		}
	}
	for _, p := range []Policy{LRU, FIFO} {
		c := MustNew[int](g, p, 7)
		fill(c)
		for i := 0; i < 8; i++ {
			w, _ := c.Victim(0, nil)
			c.Install(0, w, uint64(10+i))
		}
		if c.rng != nil || c.rngSrc != nil {
			t.Errorf("%v cache created a random source", p)
		}
	}

	c := MustNew[int](g, Random, 7)
	fill(c) // invalid ways are taken without a draw
	if c.rng != nil || c.ExportState().Draws != 0 {
		t.Fatal("filling invalid ways drew from the random source")
	}
	fresh := MustNew[int](g, Random, 7)
	if err := fresh.RestoreState(c.ExportState()); err != nil {
		t.Fatal(err)
	}
	if fresh.rng != nil {
		t.Error("restoring a state with no draws created a random source")
	}
	for i := 0; i < 5; i++ {
		c.Victim(0, nil)
	}
	if d := c.ExportState().Draws; d == 0 {
		t.Fatal("five victim choices recorded no draws")
	}
	if err := fresh.RestoreState(c.ExportState()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		want, _ := c.Victim(0, nil)
		if got, _ := fresh.Victim(0, nil); got != want {
			t.Fatalf("restored cache's victim %d = way %d, want way %d", i, got, want)
		}
	}
}

func TestVictimPreference(t *testing.T) {
	c := MustNew[int](Geometry{Size: 64, Block: 16, Assoc: 4}, LRU, 0)
	for tag := uint64(1); tag <= 4; tag++ {
		w, _ := c.Victim(0, nil)
		*c.Install(0, w, tag) = int(tag)
	}
	// Prefer ways whose payload is even.
	v, pref := c.Victim(0, func(set, w int) bool { return *c.Line(set, w)%2 == 0 })
	if !pref {
		t.Fatal("preference not honored though candidates exist")
	}
	if *c.Line(0, v)%2 != 0 {
		t.Errorf("victim payload %d is odd", *c.Line(0, v))
	}
	// No way qualifies: falls back, preferred=false.
	v2, pref2 := c.Victim(0, func(int, int) bool { return false })
	if pref2 {
		t.Error("impossible preference reported as honored")
	}
	if v2 < 0 || v2 >= 4 {
		t.Errorf("fallback victim out of range: %d", v2)
	}
}

func TestVictimPreferenceFollowsLRUAmongPreferred(t *testing.T) {
	c := MustNew[int](Geometry{Size: 64, Block: 16, Assoc: 4}, LRU, 0)
	for tag := uint64(1); tag <= 4; tag++ {
		w, _ := c.Victim(0, nil)
		c.Install(0, w, tag)
	}
	// All preferred; LRU among them is tag 1.
	v, _ := c.Victim(0, func(int, int) bool { return true })
	if c.TagAt(0, v) != 1 {
		t.Errorf("preferred LRU victim tag = %d, want 1", c.TagAt(0, v))
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew[int](Geometry{Size: 32, Block: 16, Assoc: 2}, LRU, 0)
	w, _ := c.Victim(0, nil)
	*c.Install(0, w, 5) = 99
	c.Invalidate(0, w)
	if _, ok := c.Probe(0, 5); ok {
		t.Error("probe hit after invalidate")
	}
	if *c.Line(0, w) != 99 {
		t.Error("payload should survive invalidation")
	}
	// Invalid way is the next victim.
	v, pref := c.Victim(0, nil)
	if v != w || !pref {
		t.Error("invalid way not chosen as victim")
	}
}

func TestInvalidateAllAndCountValid(t *testing.T) {
	c := MustNew[int](Geometry{Size: 128, Block: 16, Assoc: 2}, LRU, 0)
	addrs := []uint64{0x00, 0x10, 0x20, 0x30, 0x40}
	for _, a := range addrs {
		set, tag := c.Geometry().Locate(a)
		w, _ := c.Victim(set, nil)
		c.Install(set, w, tag)
	}
	if got := c.CountValid(); got != len(addrs) {
		t.Fatalf("CountValid = %d, want %d", got, len(addrs))
	}
	c.InvalidateAll()
	if got := c.CountValid(); got != 0 {
		t.Fatalf("CountValid after InvalidateAll = %d", got)
	}
}

func TestRetag(t *testing.T) {
	c := MustNew[int](Geometry{Size: 32, Block: 16, Assoc: 2}, LRU, 0)
	w, _ := c.Victim(0, nil)
	*c.Install(0, w, 5) = 77
	c.Retag(0, w, 9)
	if _, ok := c.Probe(0, 5); ok {
		t.Error("old tag still hits after retag")
	}
	got, ok := c.Probe(0, 9)
	if !ok || got != w || *c.Line(0, got) != 77 {
		t.Error("retagged entry lost")
	}
}

func TestRetagInvalidPanics(t *testing.T) {
	c := MustNew[int](Geometry{Size: 32, Block: 16, Assoc: 2}, LRU, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Retag of invalid way did not panic")
		}
	}()
	c.Retag(0, 0, 1)
}

func TestForEach(t *testing.T) {
	c := MustNew[int](Geometry{Size: 64, Block: 16, Assoc: 2}, LRU, 0)
	n := 0
	c.ForEach(func(int, int) { n++ })
	if n != 4 {
		t.Errorf("ForEach visited %d ways, want 4", n)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// Two addresses one cache-size apart conflict in a direct-mapped cache.
	g := Geometry{Size: 256, Block: 16, Assoc: 1}
	c := MustNew[int](g, LRU, 0)
	s1, t1 := g.Locate(0x000)
	s2, t2 := g.Locate(0x100)
	if s1 != s2 {
		t.Fatal("expected conflicting sets")
	}
	w, _ := c.Victim(s1, nil)
	c.Install(s1, w, t1)
	w2, pref := c.Victim(s2, nil)
	if pref == true && !c.ValidAt(s2, w2) {
		// ok: but in a full 1-way set the victim must be the valid way
	}
	c.Install(s2, w2, t2)
	if _, ok := c.Probe(s1, t1); ok {
		t.Error("direct-mapped conflict did not evict")
	}
}

// Property: after any sequence of installs the cache never holds two valid
// ways with the same tag in one set.
func TestNoDuplicateTagsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		g := Geometry{Size: 256, Block: 16, Assoc: 4}
		c := MustNew[int](g, LRU, 1)
		for _, op := range ops {
			a := uint64(op) * 8
			set, tag := g.Locate(a)
			if w, ok := c.Probe(set, tag); ok {
				c.Touch(set, w)
				continue
			}
			w, _ := c.Victim(set, nil)
			c.Install(set, w, tag)
		}
		for s := 0; s < c.Sets(); s++ {
			seen := map[uint64]bool{}
			for w := 0; w < c.Assoc(); w++ {
				if !c.ValidAt(s, w) {
					continue
				}
				if seen[c.TagAt(s, w)] {
					return false
				}
				seen[c.TagAt(s, w)] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: LRU with a working set no larger than associativity never
// evicts a live block (all ways in one set).
func TestLRUNoEvictSmallWorkingSet(t *testing.T) {
	g := Geometry{Size: 64, Block: 16, Assoc: 4}
	c := MustNew[int](g, LRU, 0)
	tags := []uint64{10, 20, 30, 40}
	miss := 0
	for round := 0; round < 10; round++ {
		for _, tag := range tags {
			if w, ok := c.Probe(0, tag); ok {
				c.Touch(0, w)
				continue
			}
			miss++
			w, _ := c.Victim(0, nil)
			c.Install(0, w, tag)
		}
	}
	if miss != len(tags) {
		t.Errorf("misses = %d, want %d cold misses only", miss, len(tags))
	}
}
