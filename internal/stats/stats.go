// Package stats provides the counters and histograms the simulator uses to
// reproduce the paper's tables: per-kind hit ratios, coherence-message
// breakdowns, inter-write intervals and procedure-call write bursts.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Histogram counts occurrences of small non-negative integer values, with an
// overflow bucket for values at or above the cap. It reproduces the paper's
// "10 and larger" style tables.
type Histogram struct {
	name    string
	cap     int // values >= cap land in the overflow bucket
	buckets []uint64
	over    uint64
	total   uint64
	sum     uint64
}

// NewHistogram creates a histogram with buckets for 0..cap-1 plus an
// overflow bucket.
func NewHistogram(name string, cap int) *Histogram {
	if cap < 1 {
		cap = 1
	}
	return &Histogram{name: name, cap: cap, buckets: make([]uint64, cap)}
}

// Observe records one occurrence of v. Negative values are clamped to 0.
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	h.total++
	h.sum += uint64(v)
	if v >= h.cap {
		h.over++
		return
	}
	h.buckets[v]++
}

// Name returns the histogram's label.
func (h *Histogram) Name() string { return h.name }

// Count returns the number of occurrences of v observed, where v < cap.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= h.cap {
		return 0
	}
	return h.buckets[v]
}

// Overflow returns the count of observations >= cap.
func (h *Histogram) Overflow() uint64 { return h.over }

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the average observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// WriteTable renders the histogram in the paper's two-column style, starting
// at the given minimum value (e.g. 1 for inter-write intervals). A negative
// minimum is clamped to 0, mirroring Observe's clamp.
func (h *Histogram) WriteTable(w io.Writer, min int) {
	if min < 0 {
		min = 0
	}
	fmt.Fprintf(w, "%-16s %s\n", "value", "count")
	for v := min; v < h.cap; v++ {
		fmt.Fprintf(w, "%-16d %d\n", v, h.buckets[v])
	}
	fmt.Fprintf(w, "%-16s %d\n", fmt.Sprintf("%d and larger", h.cap), h.over)
}

// HistogramState is a Histogram's serializable contents (checkpoint
// support).
type HistogramState struct {
	Name    string
	Cap     int
	Buckets []uint64
	Over    uint64
	Total   uint64
	Sum     uint64
}

// ExportState returns a copy of the histogram's contents.
func (h *Histogram) ExportState() HistogramState {
	return HistogramState{
		Name:    h.name,
		Cap:     h.cap,
		Buckets: append([]uint64(nil), h.buckets...),
		Over:    h.over,
		Total:   h.total,
		Sum:     h.sum,
	}
}

// RestoreState replaces the histogram's contents. The state's bucket count
// must match its cap; the receiver's identity (name, cap) is overwritten.
func (h *Histogram) RestoreState(s HistogramState) error {
	if s.Cap < 1 || len(s.Buckets) != s.Cap {
		return fmt.Errorf("stats: histogram state has %d buckets for cap %d", len(s.Buckets), s.Cap)
	}
	var inBuckets uint64
	for _, v := range s.Buckets {
		inBuckets += v
	}
	if inBuckets+s.Over != s.Total {
		return fmt.Errorf("stats: histogram state total %d != bucket sum %d + overflow %d",
			s.Total, inBuckets, s.Over)
	}
	h.name = s.Name
	h.cap = s.Cap
	h.buckets = append([]uint64(nil), s.Buckets...)
	h.over = s.Over
	h.total = s.Total
	h.sum = s.Sum
	return nil
}

// Ratio is a hit/total pair that formats as a 3-decimal hit ratio.
type Ratio struct {
	Hits  uint64
	Total uint64
}

// Add merges another ratio into r.
func (r *Ratio) Add(o Ratio) {
	r.Hits += o.Hits
	r.Total += o.Total
}

// Hit records an access that hit (hit=true) or missed.
func (r *Ratio) Hit(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Value returns hits/total, or 0 when no accesses were recorded.
func (r Ratio) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// Misses returns total - hits.
func (r Ratio) Misses() uint64 { return r.Total - r.Hits }

// String renders the ratio with three decimals, the paper's table format.
func (r Ratio) String() string { return fmt.Sprintf("%.3f", r.Value()) }

// AccessKind distinguishes the three reference classes the paper reports
// separately in Tables 8-10.
type AccessKind int

// Access kinds.
const (
	KindIFetch AccessKind = iota
	KindRead
	KindWrite
	numKinds
)

// String returns the kind's table label.
func (k AccessKind) String() string {
	switch k {
	case KindIFetch:
		return "instruction"
	case KindRead:
		return "data read"
	case KindWrite:
		return "data write"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Kinds lists the access kinds in table order (read, write, instruction),
// matching the row order of Tables 8-10.
func Kinds() []AccessKind {
	return []AccessKind{KindRead, KindWrite, KindIFetch}
}

// LevelStats aggregates per-kind hit ratios for one cache level.
type LevelStats struct {
	ByKind [numKinds]Ratio
}

// Record notes one access of the given kind.
func (s *LevelStats) Record(k AccessKind, hit bool) {
	s.ByKind[k].Hit(hit)
}

// Overall returns the hit ratio across all kinds.
func (s *LevelStats) Overall() Ratio {
	var r Ratio
	for i := range s.ByKind {
		r.Add(s.ByKind[i])
	}
	return r
}

// Kind returns the ratio for one access kind.
func (s *LevelStats) Kind(k AccessKind) Ratio { return s.ByKind[k] }

// Add merges another LevelStats into s.
func (s *LevelStats) Add(o *LevelStats) {
	for i := range s.ByKind {
		s.ByKind[i].Add(o.ByKind[i])
	}
}

// CoherenceMsg classifies the messages an L2 (or the bus, in the
// no-inclusion baseline) sends down to its L1. Tables 11-13 count these.
type CoherenceMsg int

// Coherence message kinds, following Table 4 of the paper.
const (
	MsgInvalidate          CoherenceMsg = iota // invalidate(v-pointer)
	MsgFlush                                   // flush(v-pointer)
	MsgInvalidateBuffer                        // invalidate(buffer)
	MsgFlushBuffer                             // flush(buffer)
	MsgInclusionInvalidate                     // child invalidated by an L2 replacement
	MsgProbe                                   // unfiltered bus probe (no-inclusion L1)
	MsgUpdate                                  // update(v-pointer): write-update protocol data delivery
	numMsgs
)

// String returns the message's label.
func (m CoherenceMsg) String() string {
	switch m {
	case MsgInvalidate:
		return "invalidate(v-pointer)"
	case MsgFlush:
		return "flush(v-pointer)"
	case MsgInvalidateBuffer:
		return "invalidate(buffer)"
	case MsgFlushBuffer:
		return "flush(buffer)"
	case MsgInclusionInvalidate:
		return "inclusion-invalidate"
	case MsgProbe:
		return "bus-probe"
	case MsgUpdate:
		return "update(v-pointer)"
	default:
		return fmt.Sprintf("CoherenceMsg(%d)", int(m))
	}
}

// CoherenceStats counts coherence messages reaching a first-level cache.
type CoherenceStats struct {
	ByMsg [numMsgs]uint64
}

// Record counts one message of kind m.
func (c *CoherenceStats) Record(m CoherenceMsg) { c.ByMsg[m]++ }

// RecordN counts n messages of kind m.
func (c *CoherenceStats) RecordN(m CoherenceMsg, n uint64) { c.ByMsg[m] += n }

// Total returns the number of messages of all kinds.
func (c *CoherenceStats) Total() uint64 {
	var t uint64
	for _, v := range c.ByMsg {
		t += v
	}
	return t
}

// Get returns the count for one message kind.
func (c *CoherenceStats) Get(m CoherenceMsg) uint64 { return c.ByMsg[m] }

// String summarizes non-zero counters, sorted by kind.
func (c *CoherenceStats) String() string {
	var parts []string
	for m := CoherenceMsg(0); m < numMsgs; m++ {
		if c.ByMsg[m] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", m, c.ByMsg[m]))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// IntervalTracker measures the distance (in references) between successive
// events, feeding the paper's inter-write-interval tables (Tables 2 and 3).
type IntervalTracker struct {
	hist  *Histogram
	last  uint64
	seen  bool
	clock uint64
}

// NewIntervalTracker creates a tracker whose histogram overflows at cap.
func NewIntervalTracker(name string, cap int) *IntervalTracker {
	return &IntervalTracker{hist: NewHistogram(name, cap)}
}

// Tick advances the reference clock by one.
func (t *IntervalTracker) Tick() { t.clock++ }

// Event records an event at the current clock; the interval since the
// previous event is observed (the first event records no interval).
func (t *IntervalTracker) Event() {
	if t.seen {
		t.hist.Observe(int(t.clock - t.last))
	}
	t.seen = true
	t.last = t.clock
}

// Reset forgets the previous event so the next one records no interval.
func (t *IntervalTracker) Reset() { t.seen = false }

// Histogram returns the interval histogram.
func (t *IntervalTracker) Histogram() *Histogram { return t.hist }

// IntervalTrackerState is an IntervalTracker's serializable contents
// (checkpoint support).
type IntervalTrackerState struct {
	Hist  HistogramState
	Last  uint64
	Seen  bool
	Clock uint64
}

// ExportState returns a copy of the tracker's contents.
func (t *IntervalTracker) ExportState() IntervalTrackerState {
	return IntervalTrackerState{
		Hist:  t.hist.ExportState(),
		Last:  t.last,
		Seen:  t.seen,
		Clock: t.clock,
	}
}

// RestoreState replaces the tracker's contents.
func (t *IntervalTracker) RestoreState(s IntervalTrackerState) error {
	if err := t.hist.RestoreState(s.Hist); err != nil {
		return err
	}
	t.last = s.Last
	t.seen = s.Seen
	t.clock = s.Clock
	return nil
}
