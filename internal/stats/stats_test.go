package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("test", 10)
	for _, v := range []int{1, 1, 2, 9, 10, 11, 100} {
		h.Observe(v)
	}
	if got := h.Count(1); got != 2 {
		t.Errorf("Count(1) = %d, want 2", got)
	}
	if got := h.Count(2); got != 1 {
		t.Errorf("Count(2) = %d, want 1", got)
	}
	if got := h.Count(9); got != 1 {
		t.Errorf("Count(9) = %d, want 1", got)
	}
	if got := h.Overflow(); got != 3 {
		t.Errorf("Overflow = %d, want 3", got)
	}
	if got := h.Total(); got != 7 {
		t.Errorf("Total = %d, want 7", got)
	}
	if got := h.Sum(); got != 1+1+2+9+10+11+100 {
		t.Errorf("Sum = %d", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram("neg", 5)
	h.Observe(-3)
	if h.Count(0) != 1 {
		t.Errorf("negative value not clamped to bucket 0")
	}
}

func TestHistogramOutOfRangeCount(t *testing.T) {
	h := NewHistogram("range", 5)
	if h.Count(-1) != 0 || h.Count(5) != 0 || h.Count(99) != 0 {
		t.Error("out-of-range Count should be 0")
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram("mean", 100)
	if h.Mean() != 0 {
		t.Error("empty histogram mean should be 0")
	}
	h.Observe(2)
	h.Observe(4)
	if math.Abs(h.Mean()-3) > 1e-9 {
		t.Errorf("Mean = %v, want 3", h.Mean())
	}
}

func TestHistogramTinyCap(t *testing.T) {
	h := NewHistogram("tiny", 0)
	h.Observe(0)
	h.Observe(5)
	if h.Count(0) != 1 || h.Overflow() != 1 {
		t.Errorf("cap clamping failed: count0=%d over=%d", h.Count(0), h.Overflow())
	}
}

func TestHistogramWriteTable(t *testing.T) {
	h := NewHistogram("tbl", 3)
	h.Observe(1)
	h.Observe(2)
	h.Observe(7)
	var b strings.Builder
	h.WriteTable(&b, 1)
	out := b.String()
	for _, want := range []string{"1", "2", "3 and larger"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramTotalInvariant(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram("q", 16)
		for _, v := range vals {
			h.Observe(int(v))
		}
		var inBuckets uint64
		for i := 0; i < 16; i++ {
			inBuckets += h.Count(i)
		}
		return inBuckets+h.Overflow() == h.Total() && h.Total() == uint64(len(vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Error("empty ratio should be 0")
	}
	r.Hit(true)
	r.Hit(true)
	r.Hit(false)
	r.Hit(true)
	if math.Abs(r.Value()-0.75) > 1e-9 {
		t.Errorf("Value = %v, want 0.75", r.Value())
	}
	if r.Misses() != 1 {
		t.Errorf("Misses = %d, want 1", r.Misses())
	}
	if r.String() != "0.750" {
		t.Errorf("String = %q, want 0.750", r.String())
	}
}

func TestRatioAdd(t *testing.T) {
	a := Ratio{Hits: 3, Total: 4}
	b := Ratio{Hits: 1, Total: 4}
	a.Add(b)
	if a.Hits != 4 || a.Total != 8 {
		t.Errorf("Add: got %+v", a)
	}
}

func TestLevelStats(t *testing.T) {
	var s LevelStats
	s.Record(KindRead, true)
	s.Record(KindRead, false)
	s.Record(KindWrite, true)
	s.Record(KindIFetch, true)
	if got := s.Kind(KindRead).Value(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("read ratio = %v, want 0.5", got)
	}
	if got := s.Overall(); got.Hits != 3 || got.Total != 4 {
		t.Errorf("overall = %+v", got)
	}
}

func TestLevelStatsAdd(t *testing.T) {
	var a, b LevelStats
	a.Record(KindWrite, true)
	b.Record(KindWrite, false)
	a.Add(&b)
	if got := a.Kind(KindWrite); got.Hits != 1 || got.Total != 2 {
		t.Errorf("merged write ratio = %+v", got)
	}
}

func TestAccessKindString(t *testing.T) {
	if KindIFetch.String() != "instruction" ||
		KindRead.String() != "data read" ||
		KindWrite.String() != "data write" {
		t.Error("kind labels wrong")
	}
	if !strings.Contains(AccessKind(99).String(), "99") {
		t.Error("unknown kind should include its number")
	}
}

func TestKindsOrder(t *testing.T) {
	ks := Kinds()
	if len(ks) != 3 || ks[0] != KindRead || ks[1] != KindWrite || ks[2] != KindIFetch {
		t.Errorf("Kinds() = %v", ks)
	}
}

func TestCoherenceStats(t *testing.T) {
	var c CoherenceStats
	c.Record(MsgInvalidate)
	c.Record(MsgInvalidate)
	c.Record(MsgFlush)
	c.RecordN(MsgProbe, 10)
	if c.Get(MsgInvalidate) != 2 || c.Get(MsgFlush) != 1 || c.Get(MsgProbe) != 10 {
		t.Errorf("counters wrong: %s", c.String())
	}
	if c.Total() != 13 {
		t.Errorf("Total = %d, want 13", c.Total())
	}
	s := c.String()
	if !strings.Contains(s, "invalidate(v-pointer)=2") {
		t.Errorf("String missing invalidate: %q", s)
	}
}

func TestCoherenceMsgStrings(t *testing.T) {
	msgs := []CoherenceMsg{MsgInvalidate, MsgFlush, MsgInvalidateBuffer,
		MsgFlushBuffer, MsgInclusionInvalidate, MsgProbe}
	seen := map[string]bool{}
	for _, m := range msgs {
		s := m.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate label %q", s)
		}
		seen[s] = true
	}
	if !strings.Contains(CoherenceMsg(42).String(), "42") {
		t.Error("unknown msg should include its number")
	}
}

func TestIntervalTracker(t *testing.T) {
	tr := NewIntervalTracker("iv", 10)
	tr.Event() // first event: no interval
	tr.Tick()
	tr.Tick()
	tr.Event() // interval 2
	tr.Tick()
	tr.Event() // interval 1
	h := tr.Histogram()
	if h.Count(2) != 1 || h.Count(1) != 1 || h.Total() != 2 {
		t.Errorf("intervals wrong: total=%d c1=%d c2=%d", h.Total(), h.Count(1), h.Count(2))
	}
}

func TestIntervalTrackerReset(t *testing.T) {
	tr := NewIntervalTracker("iv", 10)
	tr.Event()
	tr.Tick()
	tr.Reset()
	tr.Event() // no interval recorded after reset
	if tr.Histogram().Total() != 0 {
		t.Errorf("reset did not clear previous event")
	}
}

func TestIntervalTrackerZeroInterval(t *testing.T) {
	tr := NewIntervalTracker("iv", 10)
	tr.Event()
	tr.Event() // same clock: interval 0
	if tr.Histogram().Count(0) != 1 {
		t.Error("zero interval not recorded")
	}
}
