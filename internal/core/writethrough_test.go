package core

import (
	"testing"
)

func wtMk(o Options) (Hierarchy, error) {
	o.L1WriteThrough = true
	return NewVR(o)
}

func wtRRMk(o Options) (Hierarchy, error) {
	o.L1WriteThrough = true
	return NewRR(o)
}

func TestWriteThroughBasics(t *testing.T) {
	r := newRig(t, 1, wtMk, nil)
	// Write miss: no allocate, data lands in L2.
	w := r.write(0, 1, 0x100)
	got := r.read(0, 1, 0x100)
	if got.L1Hit {
		t.Fatal("no-write-allocate policy allocated on a write miss")
	}
	if got.Token != w.Token {
		t.Fatalf("read back %d, want %d", got.Token, w.Token)
	}
	// Now resident (the read allocated); a write hit refreshes in place and
	// stays clean.
	w2 := r.write(0, 1, 0x100)
	got = r.read(0, 1, 0x100)
	if !got.L1Hit || got.Token != w2.Token {
		t.Fatalf("write-hit data lost: %+v want %d", got, w2.Token)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	r := newRig(t, 1, wtMk, nil)
	r.read(0, 1, 0x000)
	r.write(0, 1, 0x000)
	r.write(0, 1, 0x004)
	// Conflict-evict the line: a dirty line would produce a write-back.
	r.read(0, 1, 0x080)
	if st := r.hs[0].Stats(); st.WriteBacks != 0 {
		t.Errorf("write-through produced %d write-backs", st.WriteBacks)
	}
}

func TestWriteThroughContextSwitchHasNothingToWrite(t *testing.T) {
	r := newRig(t, 1, wtMk, nil)
	for i := 0; i < 6; i++ {
		r.read(0, 1, addr16(i))
		r.write(0, 1, addr16(i))
	}
	r.ctxSwitch(0, 2)
	st := r.hs[0].Stats()
	if st.WriteBacks != 0 || st.SwappedWriteBacks != 0 {
		t.Error("write-through context switch wrote something back")
	}
}

func TestWriteThroughSynonymRefresh(t *testing.T) {
	r := newRig(t, 1, wtMk, nil)
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(1, 0x080, seg); err != nil {
		t.Fatal(err)
	}
	// Make the block resident under the first name, then write it under
	// the second (a write miss — no allocate, no move). The resident
	// synonym copy must be refreshed, not left stale.
	r.read(0, 1, 0x040)
	w := r.write(0, 1, 0x080)
	got := r.read(0, 1, 0x040)
	if !got.L1Hit {
		t.Fatal("resident synonym copy was lost")
	}
	if got.Token != w.Token {
		t.Fatalf("stale synonym copy: read %d, want %d", got.Token, w.Token)
	}
}

func TestWriteThroughStallsAtDepthOne(t *testing.T) {
	r := newRig(t, 1, wtMk, func(o *Options) {
		o.WriteBufDepth = 1
		o.WriteBufLatency = 8
	})
	// Back-to-back writes overwhelm a single buffer slot.
	for i := 0; i < 10; i++ {
		r.write(0, 1, addr16(i%4))
	}
	if r.hs[0].Stats().BufferStalls == 0 {
		t.Error("burst writes through a depth-1 buffer should stall")
	}
}

func TestWriteThroughDeepBufferAbsorbs(t *testing.T) {
	stalls := func(depth int) uint64 {
		r := newRig(t, 1, wtMk, func(o *Options) {
			o.WriteBufDepth = depth
			o.WriteBufLatency = 2
		})
		for i := 0; i < 40; i++ {
			r.write(0, 1, addr16(i%4))
			if i%4 == 3 {
				r.read(0, 1, 0x200) // breathing room
			}
		}
		return r.hs[0].Stats().BufferStalls
	}
	if s8 := stalls(8); s8 > stalls(1)/2 {
		t.Errorf("depth 8 (%d stalls) should absorb far more than depth 1", s8)
	}
}

func TestWriteThroughLowerWriteHitRatio(t *testing.T) {
	// The paper: "assuming no write-allocate, write-through caches will
	// have smaller hit ratios".
	run := func(mk mkFunc) float64 {
		r := newRig(t, 1, mk, nil)
		// Write-then-rewrite pattern: write-allocate turns the second
		// write into a hit; no-allocate misses both.
		for i := 0; i < 16; i++ {
			r.write(0, 1, addr16(i%8))
		}
		st := r.hs[0].Stats()
		return st.L1.Kind(2).Value()
	}
	wt, wb := run(wtMk), run(vrMk)
	if wt >= wb {
		t.Errorf("write-through write hit ratio %.3f should trail write-back %.3f", wt, wb)
	}
}

func TestWriteThroughCoherence(t *testing.T) {
	r := newRig(t, 2, wtMk, nil)
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(2, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	w := r.write(0, 1, 0x040)
	got := r.read(1, 2, 0x040)
	if got.Token != w.Token {
		t.Fatalf("remote read %d, want %d", got.Token, w.Token)
	}
	w2 := r.write(1, 2, 0x040)
	got = r.read(0, 1, 0x040)
	if got.Token != w2.Token {
		t.Fatalf("write-through invalidation failed: %d want %d", got.Token, w2.Token)
	}
}

func TestRandomVRWriteThrough(t *testing.T) {
	randomWorkload(t, wtMk, nil, 2, 3000, true)
}

func TestRandomRRWriteThrough(t *testing.T) {
	randomWorkload(t, wtRRMk, nil, 4, 4000, true)
}

func TestRandomVRWriteThroughSplit(t *testing.T) {
	randomWorkload(t, wtMk, func(o *Options) { o.Split = true }, 2, 3000, true)
}
