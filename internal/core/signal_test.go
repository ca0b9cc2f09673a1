package core

import (
	"slices"
	"testing"

	"repro/internal/probe"
)

// table4 holds the probe kinds that report the V-cache/R-cache interface
// signals of the paper's Table 4 (DESIGN.md §9 maps each signal to them).
var table4 = map[probe.Kind]bool{
	probe.EvL1Hit: true, probe.EvL1Miss: true, probe.EvL1Replace: true,
	probe.EvDataSupply: true, probe.EvInvAck: true,
	probe.EvSynSameSet: true, probe.EvSynBuffered: true,
	probe.EvSynMove: true, probe.EvSynCross: true,
	probe.EvWBDrain: true, probe.EvWBStall: true,
	probe.EvCohInvalidate: true, probe.EvInclusionInval: true, probe.EvRLTEvict: true,
	probe.EvCohFlush: true, probe.EvCohInvalidateBuffer: true,
	probe.EvCohFlushBuffer: true, probe.EvCohUpdate: true,
}

// collector is a probe sink that records, in order, the Table 4 signals
// one hierarchy raises.
type collector struct {
	kinds []probe.Kind
}

func (c *collector) Event(ev probe.Event) {
	if table4[ev.Kind] {
		c.kinds = append(c.kinds, ev.Kind)
	}
}

func (c *collector) reset() { c.kinds = nil }

func (c *collector) has(k probe.Kind) bool { return slices.Contains(c.kinds, k) }

// tracedRig builds a rig of VR hierarchies, each with a probe of its own
// feeding one collector.
func tracedRig(t *testing.T, n int, tweak func(*Options)) (*rig, []*collector) {
	t.Helper()
	cols := make([]*collector, 0, n)
	r := newRig(t, n, func(o Options) (Hierarchy, error) {
		c := &collector{}
		cols = append(cols, c)
		o.Probe = probe.New()
		o.Probe.AddSink(c)
		return NewVR(o)
	}, tweak)
	return r, cols
}

func TestSignalColdReadSequence(t *testing.T) {
	r, cols := tracedRig(t, 1, nil)
	c := cols[0]
	r.read(0, 1, 0x100)
	// Cold miss: miss(v-pointer, r-pointer) then data supply; no
	// replacement (the slot was empty).
	want := []probe.Kind{probe.EvL1Miss, probe.EvDataSupply}
	if !slices.Equal(c.kinds, want) {
		t.Fatalf("cold read signals = %v, want %v", c.kinds, want)
	}
	c.reset()
	r.read(0, 1, 0x104)
	if !slices.Equal(c.kinds, []probe.Kind{probe.EvL1Hit}) {
		t.Fatalf("hit signals = %v", c.kinds)
	}
}

func TestSignalWriteHitCleanRaisesInvAck(t *testing.T) {
	r, cols := tracedRig(t, 1, nil)
	c := cols[0]
	r.read(0, 1, 0x100)
	c.reset()
	r.write(0, 1, 0x100)
	// Write hit on clean: hit, then invack before the update.
	want := []probe.Kind{probe.EvL1Hit, probe.EvInvAck}
	if !slices.Equal(c.kinds, want) {
		t.Fatalf("write-hit-clean signals = %v, want %v", c.kinds, want)
	}
	c.reset()
	r.write(0, 1, 0x100)
	// Already dirty: no invack needed.
	if !slices.Equal(c.kinds, []probe.Kind{probe.EvL1Hit}) {
		t.Fatalf("write-hit-dirty signals = %v", c.kinds)
	}
}

func TestSignalReplacementAndWriteBack(t *testing.T) {
	r, cols := tracedRig(t, 1, func(o *Options) { o.WriteBufLatency = 1 })
	c := cols[0]
	r.write(0, 1, 0x000)
	c.reset()
	r.read(0, 1, 0x080) // conflicting block evicts the dirty line
	if !c.has(probe.EvL1Replace) {
		t.Fatalf("no replacement signal: %v", c.kinds)
	}
	c.reset()
	r.read(0, 1, 0x084)
	r.read(0, 1, 0x084) // ticks drain the buffered write-back
	if !c.has(probe.EvWBDrain) {
		t.Fatalf("no write-back(r-pointer) signal: %v", c.kinds)
	}
}

func TestSignalSynonymMove(t *testing.T) {
	r, cols := tracedRig(t, 1, nil)
	c := cols[0]
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(1, 0x080, seg); err != nil {
		t.Fatal(err)
	}
	r.read(0, 1, 0x040)
	c.reset()
	r.read(0, 1, 0x080)
	want := []probe.Kind{probe.EvL1Miss, probe.EvSynMove}
	if !slices.Equal(c.kinds, want) {
		t.Fatalf("synonym move signals = %v, want %v", c.kinds, want)
	}
}

func TestSignalSynonymSameSetCancelsWriteBack(t *testing.T) {
	r, cols := tracedRig(t, 1, func(o *Options) { o.WriteBufLatency = 1000 })
	c := cols[0]
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x080, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(1, 0x200, seg); err != nil {
		t.Fatal(err)
	}
	r.write(0, 1, 0x080)
	c.reset()
	r.read(0, 1, 0x200) // same-set synonym; dirty victim's write-back canceled
	got := c.kinds
	want := []probe.Kind{probe.EvL1Miss, probe.EvL1Replace, probe.EvSynBuffered}
	if !slices.Equal(got, want) {
		t.Fatalf("sameset signals = %v, want %v", got, want)
	}
}

func TestSignalRemoteFlushAndInvalidate(t *testing.T) {
	r, cols := tracedRig(t, 2, nil)
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(2, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	r.write(0, 1, 0x040)
	cols[0].reset()
	r.read(1, 2, 0x040) // remote read flushes cpu0's dirty copy
	if !cols[0].has(probe.EvCohFlush) {
		t.Fatalf("cpu0 missing flush(v-pointer): %v", cols[0].kinds)
	}
	cols[0].reset()
	r.write(1, 2, 0x040) // remote write invalidates cpu0's copy
	if !cols[0].has(probe.EvCohInvalidate) {
		t.Fatalf("cpu0 missing invalidation(v-pointer): %v", cols[0].kinds)
	}
}

func TestSignalUpdateProtocol(t *testing.T) {
	r, cols := tracedRig(t, 2, func(o *Options) { o.Protocol = WriteUpdate })
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(2, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	r.read(0, 1, 0x040)
	r.read(1, 2, 0x040)
	cols[1].reset()
	r.write(0, 1, 0x040)
	if !cols[1].has(probe.EvCohUpdate) {
		t.Fatalf("cpu1 missing update(v-pointer): %v", cols[1].kinds)
	}
}

func TestNoTracerNoOverhead(t *testing.T) {
	// Just exercise the nil-tracer path under a random workload.
	randomWorkload(t, vrMk, nil, 1, 500, true)
}

func TestSignalSameSetCleanVictim(t *testing.T) {
	// Direct-mapped L1: accessing the same physical block under a second
	// same-set name evicts the clean synonym itself; the paper's sameset
	// path just sets the inclusion bit back — no data supply.
	r, cols := tracedRig(t, 1, nil)
	c := cols[0]
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x080, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(1, 0x200, seg); err != nil {
		t.Fatal(err)
	}
	r.read(0, 1, 0x080) // clean copy under the first name
	c.reset()
	got := r.read(0, 1, 0x200)
	if got.Synonym != SynSameSet {
		t.Fatalf("clean-victim synonym = %v, want %v", got.Synonym, SynSameSet)
	}
	want := []probe.Kind{probe.EvL1Miss, probe.EvL1Replace, probe.EvSynSameSet}
	if !slices.Equal(c.kinds, want) {
		t.Fatalf("signals = %v, want %v", c.kinds, want)
	}
	if r.hs[0].Stats().Synonyms[SynSameSet] != 1 {
		t.Error("sameset not counted")
	}
}
