// Package rcache implements the paper's second-level physically-addressed
// cache. Beyond the physical tag, each line carries the control state of
// Figure 3: a coherence state shared with the other R-caches on the bus,
// and one subentry per first-level block (R-cache blocks may be a multiple
// of V-cache blocks). A subentry holds the inclusion bit, the buffer bit
// (copy in the V-cache's write buffer), the V-dirty and R-dirty bits, and
// the v-pointer locating the child copy in the V-cache — the reverse
// translation information that lets the R-cache resolve synonyms and shield
// the V-cache from irrelevant coherence traffic.
//
// Victim selection implements the paper's relaxed inclusion rule: prefer a
// line with every inclusion and buffer bit clear; when none exists, evict
// anyway and let the controller invalidate the V-cache children (an
// "inclusion invalidation", which the paper shows is rare).
package rcache

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
)

// State is the bus-coherence state of an R-cache line. Invalid lines are
// simply absent from the tag store.
type State int

// Coherence states of the paper's invalidation protocol.
const (
	Shared  State = iota // other hierarchies may hold clean copies
	Private              // no other hierarchy holds a copy; writes need no bus traffic
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Shared:
		return "shared"
	case Private:
		return "private"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// VPtr is the v-pointer: the V-cache location of a subentry's child copy.
// Cache selects the first-level cache in a split organization (0 = unified
// or data, 1 = instruction).
type VPtr struct {
	Cache, Set, Way int
}

// String renders the pointer for diagnostics.
func (p VPtr) String() string { return fmt.Sprintf("V%d[%d.%d]", p.Cache, p.Set, p.Way) }

// SubEntry is the per-first-level-block control state within an R-cache
// line.
type SubEntry struct {
	Inclusion bool   // a copy is resident in the V-cache (live or swapped)
	Buffer    bool   // a modified copy sits in the V-cache's write buffer
	VDirty    bool   // the first-level copy (or buffered copy) is modified
	RDirty    bool   // this cache's copy is modified relative to memory
	VPtr      VPtr   // child location; meaningful when Inclusion is set
	Token     uint64 // data oracle token of this cache's copy
}

// HasChild reports whether the subentry tracks first-level data (resident
// or buffered).
func (s *SubEntry) HasChild() bool { return s.Inclusion || s.Buffer }

// Line is the R-cache line payload.
type Line struct {
	State State
	Subs  []SubEntry
}

// RCache is the physically-indexed, physically-tagged second-level cache.
type RCache struct {
	tags    *cache.Cache[Line]
	geom    cache.Geometry
	subSize uint64 // first-level block size
	subs    int    // subentries per line
	naive   bool   // ignore children when picking victims (ablation)

	subShift uint   // log2(subSize)
	subMask  uint64 // subs - 1
	// childless is the relaxed-inclusion victim preference, built once at
	// construction so PickVictim allocates no per-call closure.
	childless func(set, way int) bool
	// slab backs lazily attached Subs slices in large chunks: one
	// allocation covers slabLines lines, so filling a cold cache costs a
	// handful of allocations instead of one per line — and the garbage
	// collector scans a few large objects instead of hundreds of
	// thousands of small ones (measured ~20% of sweep time at 18
	// configurations).
	slab []SubEntry
}

// slabLines is the number of lines' worth of subentries per slab chunk.
const slabLines = 256

// newSubs hands out one line's subentry slice from the slab.
func (r *RCache) newSubs() []SubEntry {
	if len(r.slab) < r.subs {
		r.slab = make([]SubEntry, r.subs*slabLines)
	}
	s := r.slab[:r.subs:r.subs]
	r.slab = r.slab[r.subs:]
	return s
}

// SetNaiveReplacement disables the relaxed-inclusion victim preference so
// replacements ignore first-level children — the ablation quantifying how
// much the paper's preference rule saves.
func (r *RCache) SetNaiveReplacement(naive bool) { r.naive = naive }

// New builds an LRU R-cache with geometry g whose lines are divided into
// subentries of l1Block bytes. g.Block must be a multiple of l1Block.
func New(g cache.Geometry, l1Block uint64) (*RCache, error) {
	return NewWithPolicy(g, l1Block, cache.LRU, 0)
}

// NewWithPolicy is New with an explicit replacement policy and (for Random
// replacement) deterministic seed. The relaxed-inclusion victim preference
// applies on top of whichever policy breaks ties among preferred lines.
func NewWithPolicy(g cache.Geometry, l1Block uint64, policy cache.Policy, seed int64) (*RCache, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !addr.IsPow2(l1Block) || l1Block > g.Block {
		return nil, fmt.Errorf("rcache: L1 block %d incompatible with L2 block %d", l1Block, g.Block)
	}
	tags, err := cache.New[Line](g, policy, seed)
	if err != nil {
		return nil, err
	}
	r := &RCache{
		tags:     tags,
		geom:     g,
		subSize:  l1Block,
		subs:     int(g.Block / l1Block),
		subShift: addr.MustLog2(l1Block),
	}
	r.subMask = uint64(r.subs - 1)
	r.childless = r.hasNoChildren
	return r, nil
}

// hasNoChildren reports whether the line at (set, way) tracks no
// first-level data — the paper's preferred replacement victim.
func (r *RCache) hasNoChildren(set, way int) bool {
	l := r.tags.Line(set, way)
	for i := range l.Subs {
		if l.Subs[i].HasChild() {
			return false
		}
	}
	return true
}

// MustNew is New but panics on error.
func MustNew(g cache.Geometry, l1Block uint64) *RCache {
	r, err := New(g, l1Block)
	if err != nil {
		panic(err)
	}
	return r
}

// Geometry returns the cache's shape.
func (r *RCache) Geometry() cache.Geometry { return r.geom }

// SubsPerLine returns the number of subentries per line.
func (r *RCache) SubsPerLine() int { return r.subs }

// SubSize returns the subentry (first-level block) size in bytes.
func (r *RCache) SubSize() uint64 { return r.subSize }

// Locate maps a physical address to its (set, tag).
func (r *RCache) Locate(pa addr.PAddr) (set int, tag uint64) {
	return r.tags.Locate(uint64(pa))
}

// SubIndex returns which subentry of its line pa falls in.
func (r *RCache) SubIndex(pa addr.PAddr) int {
	return int(uint64(pa) >> r.subShift & r.subMask)
}

// Lookup probes for pa's line without touching recency.
func (r *RCache) Lookup(pa addr.PAddr) (set, way int, ok bool) {
	set, tag := r.Locate(pa)
	way, ok = r.tags.Probe(set, tag)
	return set, way, ok
}

// Touch marks (set, way) most recently used.
func (r *RCache) Touch(set, way int) { r.tags.Touch(set, way) }

// Line returns the payload at (set, way); its Subs slice is always
// SubsPerLine long.
func (r *RCache) Line(set, way int) *Line {
	l := r.tags.Line(set, way)
	if l.Subs == nil {
		l.Subs = r.newSubs()
	}
	return l
}

// Sub returns one subentry of a line.
func (r *RCache) Sub(set, way, sub int) *SubEntry { return &r.Line(set, way).Subs[sub] }

// Present reports whether (set, way) holds a valid line.
func (r *RCache) Present(set, way int) bool { return r.tags.ValidAt(set, way) }

// BlockAddr returns the block-aligned physical address of the line at
// (set, way).
func (r *RCache) BlockAddr(set, way int) addr.PAddr {
	return addr.PAddr(r.tags.BlockAddr(set, r.tags.TagAt(set, way)))
}

// SubAddr returns the physical address of subentry sub of the line at
// (set, way).
func (r *RCache) SubAddr(set, way, sub int) addr.PAddr {
	return r.BlockAddr(set, way) + addr.PAddr(uint64(sub)*r.subSize)
}

// Victim describes the line a replacement will evict.
type Victim struct {
	Set, Way  int
	Present   bool
	Preferred bool // victim had no first-level children (the paper's preferred case)
}

// PickVictim chooses the replacement slot for a fill of pa, preferring
// lines with every inclusion and buffer bit clear. When Preferred is false
// the caller must invalidate or drain the victim's children before reusing
// the slot.
func (r *RCache) PickVictim(pa addr.PAddr) Victim {
	set, _ := r.Locate(pa)
	prefer := r.childless
	if r.naive {
		prefer = nil
	}
	way, preferred := r.tags.Victim(set, prefer)
	return Victim{Set: set, Way: way, Present: r.tags.ValidAt(set, way), Preferred: preferred}
}

// Install fills (set, way) with the line for pa and returns the payload
// with all subentries reset.
func (r *RCache) Install(set, way int, pa addr.PAddr, state State) *Line {
	_, tag := r.Locate(pa)
	l := r.tags.Install(set, way, tag)
	if l.Subs == nil {
		l.Subs = r.newSubs()
	}
	for i := range l.Subs {
		l.Subs[i] = SubEntry{}
	}
	l.State = state
	return l
}

// Invalidate removes the line at (set, way). Subentry state is cleared so
// stale pointers cannot leak into a later install.
func (r *RCache) Invalidate(set, way int) {
	l := r.tags.Line(set, way)
	for i := range l.Subs {
		l.Subs[i] = SubEntry{}
	}
	r.tags.Invalidate(set, way)
}

// CountValid returns the number of valid lines.
func (r *RCache) CountValid() int { return r.tags.CountValid() }

// ExportState captures the tag store (checkpoint support). Line payloads
// hold a subentry slice, so each exported line gets its own deep copy — the
// state stays stable if the cache keeps running afterwards.
func (r *RCache) ExportState() cache.State[Line] {
	s := r.tags.ExportState()
	for i := range s.Ways {
		s.Ways[i].Line.Subs = append([]SubEntry(nil), s.Ways[i].Line.Subs...)
	}
	return s
}

// RestoreState replaces the tag store's contents. Each restored line's
// subentry slice must be empty (never-touched payload) or exactly
// SubsPerLine long; the cache takes deep copies.
func (r *RCache) RestoreState(s cache.State[Line]) error {
	for i := range s.Ways {
		if n := len(s.Ways[i].Line.Subs); n != 0 && n != r.subs {
			return fmt.Errorf("rcache: state way %d has %d subentries, want 0 or %d", i, n, r.subs)
		}
	}
	// Copy the ways first: s shares its backing array with the caller's
	// state, which must not end up holding the cache's own subentries.
	s.Ways = append([]cache.Entry[Line](nil), s.Ways...)
	for i := range s.Ways {
		s.Ways[i].Line.Subs = append([]SubEntry(nil), s.Ways[i].Line.Subs...)
	}
	return r.tags.RestoreState(s)
}

// ForEachValid visits every valid line.
func (r *RCache) ForEachValid(fn func(set, way int, l *Line)) {
	r.tags.ForEachValid(func(set, way int) {
		fn(set, way, r.Line(set, way))
	})
}
