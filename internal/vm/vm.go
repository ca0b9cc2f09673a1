// Package vm models the virtual-memory substrate under the cache hierarchy:
// per-process address spaces, demand allocation of physical frames, and
// shared segments that different processes map at different virtual bases —
// the source of the synonyms the paper's R-cache must resolve.
//
// The MMU is deterministic: given the same sequence of translations it
// always assigns the same frames, so simulations are reproducible.
package vm

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/addr"
)

// MMU owns the machine's page tables. Translation is demand-paged: the first
// touch of a private virtual page allocates the next free frame. Shared
// segments must be mapped explicitly with MapShared before use.
type MMU struct {
	geom      addr.PageGeom
	nextFrame uint64
	spaces    map[addr.PID]*space
	stats     Stats
}

type space struct {
	pages map[uint64]uint64 // virtual page -> physical frame
}

// Stats counts MMU activity.
type Stats struct {
	Translations uint64 // successful translations
	Allocations  uint64 // frames demand-allocated
	SharedMaps   uint64 // pages mapped via MapShared
}

// New creates an MMU with the given page size in bytes.
func New(pageSize uint64) (*MMU, error) {
	g, err := addr.NewPageGeom(pageSize)
	if err != nil {
		return nil, err
	}
	return &MMU{geom: g, spaces: make(map[addr.PID]*space)}, nil
}

// MustNew is New but panics on error, for tests and examples with
// compile-time-constant page sizes.
func MustNew(pageSize uint64) *MMU {
	m, err := New(pageSize)
	if err != nil {
		panic(err)
	}
	return m
}

// PageGeom returns the MMU's page geometry.
func (m *MMU) PageGeom() addr.PageGeom { return m.geom }

// Stats returns a copy of the MMU's counters.
func (m *MMU) Stats() Stats { return m.stats }

func (m *MMU) spaceFor(pid addr.PID) *space {
	s := m.spaces[pid]
	if s == nil {
		s = &space{pages: make(map[uint64]uint64)}
		m.spaces[pid] = s
	}
	return s
}

// Translate maps (pid, va) to a physical address, demand-allocating a fresh
// frame on the first touch of a private page.
func (m *MMU) Translate(pid addr.PID, va addr.VAddr) addr.PAddr {
	if pid == addr.NoPID {
		panic("vm: translate with NoPID")
	}
	s := m.spaceFor(pid)
	vpage := m.geom.VPage(va)
	frame, ok := s.pages[vpage]
	if !ok {
		frame = m.nextFrame
		m.nextFrame++
		s.pages[vpage] = frame
		m.stats.Allocations++
	}
	m.stats.Translations++
	return m.geom.Translate(va, frame)
}

// Lookup is Translate without demand allocation; ok is false when the page
// is unmapped.
func (m *MMU) Lookup(pid addr.PID, va addr.VAddr) (addr.PAddr, bool) {
	s := m.spaces[pid]
	if s == nil {
		return 0, false
	}
	frame, ok := s.pages[m.geom.VPage(va)]
	if !ok {
		return 0, false
	}
	return m.geom.Translate(va, frame), true
}

// Segment names a run of physical frames that can be mapped into several
// address spaces (or one address space twice), creating synonyms.
type Segment struct {
	firstFrame uint64
	pages      uint64
	geom       addr.PageGeom
}

// NewSegment allocates a shared segment of the given length in bytes,
// rounded up to whole pages.
func (m *MMU) NewSegment(bytes uint64) *Segment {
	pages := (bytes + m.geom.Size() - 1) / m.geom.Size()
	if pages == 0 {
		pages = 1
	}
	seg := &Segment{firstFrame: m.nextFrame, pages: pages, geom: m.geom}
	m.nextFrame += pages
	return seg
}

// Pages returns the segment's length in pages.
func (s *Segment) Pages() uint64 { return s.pages }

// Bytes returns the segment's length in bytes.
func (s *Segment) Bytes() uint64 { return s.pages * s.geom.Size() }

// PAddr returns the physical address of the given byte offset into the
// segment.
func (s *Segment) PAddr(offset uint64) addr.PAddr {
	if offset >= s.Bytes() {
		panic(fmt.Sprintf("vm: segment offset %d out of range %d", offset, s.Bytes()))
	}
	return s.geom.JoinP(s.firstFrame+offset/s.geom.Size(), offset%s.geom.Size())
}

// MapShared maps seg into pid's address space starting at virtual address
// base, which must be page-aligned. Pages already mapped are an error —
// the simulator's workloads lay out segments disjointly.
func (m *MMU) MapShared(pid addr.PID, base addr.VAddr, seg *Segment) error {
	if pid == addr.NoPID {
		return fmt.Errorf("vm: MapShared with NoPID")
	}
	if m.geom.Offset(base) != 0 {
		return fmt.Errorf("vm: shared base %#x not page aligned", uint64(base))
	}
	s := m.spaceFor(pid)
	vpage0 := m.geom.VPage(base)
	for i := uint64(0); i < seg.pages; i++ {
		if _, exists := s.pages[vpage0+i]; exists {
			return fmt.Errorf("vm: pid %d vpage %#x already mapped", pid, vpage0+i)
		}
	}
	for i := uint64(0); i < seg.pages; i++ {
		s.pages[vpage0+i] = seg.firstFrame + i
		m.stats.SharedMaps++
	}
	return nil
}

// MappedPages returns pid's mapped virtual page numbers in ascending order.
func (m *MMU) MappedPages(pid addr.PID) []uint64 {
	s := m.spaces[pid]
	if s == nil {
		return nil
	}
	out := make([]uint64, 0, len(s.pages))
	for v := range s.pages {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FramesInUse returns the number of physical frames allocated so far.
func (m *MMU) FramesInUse() uint64 { return m.nextFrame }

// Synonyms reports all (pid, vpage) pairs that map to the physical frame of
// pa. It is O(total pages) and intended for tests and diagnostics.
func (m *MMU) Synonyms(pa addr.PAddr) []SynonymSite {
	frame := m.geom.PFrame(pa)
	var out []SynonymSite
	for pid, s := range m.spaces {
		for vpage, f := range s.pages {
			if f == frame {
				out = append(out, SynonymSite{PID: pid, VPage: vpage})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		return out[i].VPage < out[j].VPage
	})
	return out
}

// SynonymSite is one virtual mapping of a physical frame.
type SynonymSite struct {
	PID   addr.PID
	VPage uint64
}

// PageMapping is one page-table entry's serializable form.
type PageMapping struct {
	VPage uint64
	Frame uint64
}

// SpaceState is one address space's serializable page table, sorted by
// virtual page number.
type SpaceState struct {
	PID   addr.PID
	Pages []PageMapping
}

// State is the MMU's serializable state (checkpoint support), with spaces
// sorted by PID so identical MMUs export identical states.
type State struct {
	NextFrame uint64
	Stats     Stats
	Spaces    []SpaceState
}

// ExportState captures the page tables and counters.
func (m *MMU) ExportState() State {
	st := State{NextFrame: m.nextFrame, Stats: m.stats}
	pids := make([]addr.PID, 0, len(m.spaces))
	for pid := range m.spaces {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		ss := SpaceState{PID: pid}
		for _, vpage := range m.MappedPages(pid) {
			ss.Pages = append(ss.Pages, PageMapping{VPage: vpage, Frame: m.spaces[pid].pages[vpage]})
		}
		st.Spaces = append(st.Spaces, ss)
	}
	return st
}

// CopyFrom makes m a copy of src: the same page tables, allocation horizon
// and counters, in maps m owns. src is only read, so several MMUs may copy
// one snapshot at once. The page sizes must match.
func (m *MMU) CopyFrom(src *MMU) error {
	if m.geom != src.geom {
		return fmt.Errorf("vm: cannot copy a %d-byte-page MMU into a %d-byte-page one",
			src.geom.Size(), m.geom.Size())
	}
	m.nextFrame = src.nextFrame
	m.stats = src.stats
	m.spaces = make(map[addr.PID]*space, len(src.spaces))
	for pid, s := range src.spaces {
		m.spaces[pid] = &space{pages: maps.Clone(s.pages)}
	}
	return nil
}

// RestoreState replaces the page tables and counters. Every mapped frame
// must lie below NextFrame, the allocation horizon.
func (m *MMU) RestoreState(st State) error {
	for _, ss := range st.Spaces {
		if ss.PID == addr.NoPID {
			return fmt.Errorf("vm: state maps pages for NoPID")
		}
		for _, pm := range ss.Pages {
			if pm.Frame >= st.NextFrame {
				return fmt.Errorf("vm: state maps frame %d at or beyond horizon %d", pm.Frame, st.NextFrame)
			}
		}
	}
	m.nextFrame = st.NextFrame
	m.stats = st.Stats
	m.spaces = make(map[addr.PID]*space, len(st.Spaces))
	for _, ss := range st.Spaces {
		s := m.spaceFor(ss.PID)
		for _, pm := range ss.Pages {
			s.pages[pm.VPage] = pm.Frame
		}
	}
	return nil
}
