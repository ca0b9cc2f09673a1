package stats

import (
	"strings"
	"testing"
)

// Table-driven edge cases for the counters' degenerate inputs: empty
// aggregates, zero totals, the overflow bucket, and hostile WriteTable
// minimums (a negative minimum used to index below the bucket slice and
// panic; it now clamps to 0, mirroring Observe).

func TestHistogramEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		observe  []int
		cap      int
		wantMean float64
		wantOver uint64
		wantSum  uint64
	}{
		{name: "empty", cap: 4, wantMean: 0},
		{name: "single zero", observe: []int{0}, cap: 4, wantMean: 0},
		{name: "all overflow", observe: []int{4, 5, 100}, cap: 4, wantMean: 109.0 / 3, wantOver: 3, wantSum: 109},
		{name: "boundary value lands in overflow", observe: []int{3, 4}, cap: 4, wantMean: 3.5, wantOver: 1, wantSum: 7},
		{name: "negative clamps to zero", observe: []int{-7, 2}, cap: 4, wantMean: 1, wantSum: 2},
		{name: "cap below one is raised to one", observe: []int{0, 1}, cap: 0, wantMean: 0.5, wantOver: 1, wantSum: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(tc.name, tc.cap)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			if got := h.Mean(); got != tc.wantMean {
				t.Errorf("Mean() = %v, want %v", got, tc.wantMean)
			}
			if got := h.Overflow(); got != tc.wantOver {
				t.Errorf("Overflow() = %d, want %d", got, tc.wantOver)
			}
			if got := h.Sum(); got != tc.wantSum {
				t.Errorf("Sum() = %d, want %d", got, tc.wantSum)
			}
			if got := h.Total(); got != uint64(len(tc.observe)) {
				t.Errorf("Total() = %d, want %d", got, len(tc.observe))
			}
			// The accounting invariant: buckets + overflow == total.
			var inBuckets uint64
			for v := 0; v < 2*tc.cap+2; v++ {
				inBuckets += h.Count(v)
			}
			if inBuckets+h.Overflow() != h.Total() {
				t.Errorf("buckets (%d) + overflow (%d) != total (%d)", inBuckets, h.Overflow(), h.Total())
			}
		})
	}
}

func TestHistogramWriteTableEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		observe []int
		min     int
		want    []string // substrings the rendering must contain
	}{
		{name: "empty histogram renders", min: 0, want: []string{"value", "3 and larger"}},
		{name: "negative min is clamped", observe: []int{0, 1}, min: -5, want: []string{"0", "1"}},
		{name: "min beyond cap renders only overflow", observe: []int{9}, min: 100, want: []string{"3 and larger"}},
		{name: "overflow row counts", observe: []int{7, 8}, min: 1, want: []string{"3 and larger     2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram("t", 3)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			var sb strings.Builder
			h.WriteTable(&sb, tc.min) // must not panic for any min
			for _, w := range tc.want {
				if !strings.Contains(sb.String(), w) {
					t.Errorf("rendering lacks %q:\n%s", w, sb.String())
				}
			}
		})
	}
}

func TestRatioEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		r          Ratio
		wantValue  float64
		wantMisses uint64
		wantStr    string
	}{
		{name: "zero total", r: Ratio{}, wantValue: 0, wantStr: "0.000"},
		{name: "all hits", r: Ratio{Hits: 5, Total: 5}, wantValue: 1, wantStr: "1.000"},
		{name: "no hits", r: Ratio{Hits: 0, Total: 8}, wantValue: 0, wantMisses: 8, wantStr: "0.000"},
		{name: "half", r: Ratio{Hits: 2, Total: 4}, wantValue: 0.5, wantMisses: 2, wantStr: "0.500"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.r.Value(); got != tc.wantValue {
				t.Errorf("Value() = %v, want %v", got, tc.wantValue)
			}
			if got := tc.r.Misses(); got != tc.wantMisses {
				t.Errorf("Misses() = %d, want %d", got, tc.wantMisses)
			}
			if got := tc.r.String(); got != tc.wantStr {
				t.Errorf("String() = %q, want %q", got, tc.wantStr)
			}
		})
	}
}

func TestLevelStatsEmptyAggregates(t *testing.T) {
	var ls LevelStats
	if got := ls.Overall(); got != (Ratio{}) {
		t.Errorf("empty Overall() = %+v", got)
	}
	if v := ls.Overall().Value(); v != 0 {
		t.Errorf("empty overall ratio = %v", v)
	}
	var agg LevelStats
	agg.Add(&ls)
	if agg != (LevelStats{}) {
		t.Errorf("empty + empty = %+v", agg)
	}
}
