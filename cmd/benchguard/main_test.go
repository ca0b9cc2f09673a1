package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkSweepNConfigs/6         	       1	  32134336 ns/op	   6135806 refs/s	 9134168 B/op
BenchmarkSweepNConfigs/6         	       1	  30087961 ns/op	   6553100 refs/s	 9130808 B/op
BenchmarkSweepNConfigs/18        	       1	  40087961 ns/op	   5193864 refs/s	 9130808 B/op
PASS
`

func TestBestRefsPerSec(t *testing.T) {
	runs, err := refsPerSecRuns(sampleOutput, "6")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || slices.Max(runs) != 6553100 {
		t.Fatalf("runs %v, want best 6553100 over 2", runs)
	}
	// The /18 line must not leak into the /6 guard, nor the reverse.
	runs, err = refsPerSecRuns(sampleOutput, "18")
	if err != nil || len(runs) != 1 || runs[0] != 5193864 {
		t.Fatalf("config 18: runs %v err=%v", runs, err)
	}
	if _, err := refsPerSecRuns("PASS\n", "6"); err == nil {
		t.Fatal("no samples must be an error")
	}
	if _, err := refsPerSecRuns("BenchmarkSweepNConfigs/6 1 bogus refs/s\n", "6"); err == nil {
		t.Fatal("unparseable value must be an error")
	}
}

// TestNoiseBand checks the median and quartiles recorded beside the best
// run, on canned output of five repetitions and on the one- and two-run
// edge cases.
func TestNoiseBand(t *testing.T) {
	out := `goos: linux
BenchmarkSweepNConfigs/6-2   	       1	  32134336 ns/op	   5000000 refs/s	 9134168 B/op
BenchmarkSweepNConfigs/6-2   	       1	  30087961 ns/op	   6000000 refs/s	 9130808 B/op
BenchmarkSweepNConfigs/18-2  	       1	  40087961 ns/op	   9900000 refs/s	 9130808 B/op
BenchmarkSweepNConfigs/6-2   	       1	  30087961 ns/op	   4000000 refs/s	 9130808 B/op
BenchmarkSweepNConfigs/6-2   	       1	  30087961 ns/op	   8000000 refs/s	 9130808 B/op
BenchmarkSweepNConfigs/6-2   	       1	  30087961 ns/op	   7000000 refs/s	 9130808 B/op
PASS
`
	runs, err := refsPerSecRuns(out, "6")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{5e6, 6e6, 4e6, 8e6, 7e6}; !slices.Equal(runs, want) {
		t.Fatalf("runs %v, want %v in output order", runs, want)
	}
	if q1, med, q3 := quartiles(runs); q1 != 5e6 || med != 6e6 || q3 != 7e6 {
		t.Errorf("five runs: quartiles %v %v %v, want 5e6 6e6 7e6", q1, med, q3)
	}
	if !slices.Equal(runs, []float64{5e6, 6e6, 4e6, 8e6, 7e6}) {
		t.Error("quartiles reordered its input")
	}
	if q1, med, q3 := quartiles([]float64{4e6}); q1 != 4e6 || med != 4e6 || q3 != 4e6 {
		t.Errorf("one run: quartiles %v %v %v, want all 4e6", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{6e6, 4e6}); q1 != 4.5e6 || med != 5e6 || q3 != 5.5e6 {
		t.Errorf("two runs: quartiles %v %v %v, want 4.5e6 5e6 5.5e6", q1, med, q3)
	}
}

// TestHistoryLoadsOldEntries checks that entries recorded before the noise
// band existed still load, and that an entry with a band round-trips it.
func TestHistoryLoadsOldEntries(t *testing.T) {
	old := `[{"time": "2026-08-08T15:25:36Z", "config": "6", "refsPerSec": 7527350,
		"baseline": 6619246, "threshold": 0.9, "pass": true, "goVersion": "go1.24.0",
		"numCPU": 0, "gomaxprocs": 0}]`
	path := filepath.Join(t.TempDir(), "hist.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	e := historyEntry{Config: "6", RefsPerSec: 6e6, MedianRefsPerSec: 5.5e6,
		Q1RefsPerSec: 5e6, Q3RefsPerSec: 5.8e6, Pass: true}
	if err := appendHistory(path, e); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []historyEntry
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].RefsPerSec != 7527350 || got[0].MedianRefsPerSec != 0 || got[1] != e {
		t.Fatalf("trajectory %+v", got)
	}
	if strings.Count(string(data), "medianRefsPerSec") != 1 {
		t.Errorf("the old entry grew a median field:\n%s", data)
	}
}

func TestBaselineRefsPerSec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	doc := `{"BenchmarkSweepNConfigs_aggregate_refs_per_sec": {"6": 6619246}, "numCPU": 1,
		"BenchmarkSweepNConfigs_aggregate_refs_per_sec_by_numCPU": {"2": {"6": 9000000}}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got, cpus, err := baselineRefsPerSec(path, "6", 1)
	if err != nil || got != 6619246 || cpus != 1 {
		t.Fatalf("got %v on %d CPUs, %v", got, cpus, err)
	}
	// A baseline keyed by this host's core count wins; other hosts fall
	// back to the primary one and its core count (so the gate skips).
	if got, cpus, err := baselineRefsPerSec(path, "6", 2); err != nil || got != 9000000 || cpus != 2 {
		t.Fatalf("2-CPU baseline: got %v on %d CPUs, %v", got, cpus, err)
	}
	if got, cpus, err := baselineRefsPerSec(path, "6", 8); err != nil || got != 6619246 || cpus != 1 {
		t.Fatalf("8-CPU host: got %v on %d CPUs, %v", got, cpus, err)
	}
	if _, _, err := baselineRefsPerSec(path, "99", 1); err == nil {
		t.Fatal("missing config must be an error")
	}
	if _, _, err := baselineRefsPerSec(filepath.Join(t.TempDir(), "nope.json"), "6", 1); err == nil {
		t.Fatal("missing file must be an error")
	}
	// A baseline file without the core-count field (an older repo state)
	// still parses, with cpus 0 meaning "unknown, do not refuse the diff".
	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, []byte(`{"BenchmarkSweepNConfigs_aggregate_refs_per_sec": {"6": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, cpus, err := baselineRefsPerSec(old, "6", 1); err != nil || cpus != 0 {
		t.Fatalf("legacy baseline: cpus=%d err=%v", cpus, err)
	}
}

func TestAppendHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.json")
	e1 := historyEntry{Time: "2026-08-08T00:00:00Z", Config: "6",
		RefsPerSec: 6500000, Baseline: 6619246, Threshold: 0.9, Pass: true, GoVersion: "go1.24.0"}
	if err := appendHistory(path, e1); err != nil {
		t.Fatal(err)
	}
	e2 := e1
	e2.RefsPerSec, e2.Pass = 1000, false
	if err := appendHistory(path, e2); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []historyEntry
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != e1 || got[1] != e2 {
		t.Fatalf("trajectory mismatch: %+v", got)
	}
	// Corrupt file: the append must fail loudly, not silently truncate the
	// trajectory.
	if err := os.WriteFile(path, []byte("{not an array"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, e1); err == nil {
		t.Fatal("append to a corrupt trajectory must error")
	}
}

// TestGuardAgainstRealBaseline exercises the full path against the
// repository baseline without spawning go test: only the parse + compare.
func TestGuardComparison(t *testing.T) {
	want := 6619246.0
	best := 6000000.0
	if best >= want*0.9 {
		// 6000000 < 5957321 is false — this is above the floor.
	} else {
		t.Fatal("arithmetic sanity")
	}
	if 5000000.0 >= want*0.9 {
		t.Fatal("a 25% regression must be below the floor")
	}
}

// TestThroughputTrendWarning: the advisory monotonic-decline check fires
// only on a strict entry-over-entry decline of the last window entries for
// the requested config, and stays silent on every inconclusive input.
func TestThroughputTrendWarning(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, series map[string][]float64) string {
		var entries []historyEntry
		// Interleave configs the way real appends do: one entry per run.
		for cfg, vals := range series {
			for _, v := range vals {
				entries = append(entries, historyEntry{Config: cfg, RefsPerSec: v, Pass: true})
			}
		}
		data, err := json.Marshal(entries)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	declining := write("decline.json", map[string][]float64{
		"18": {100, 99, 98, 97, 96},
	})
	if warn := throughputTrendWarning(declining, "18", 5); warn == "" {
		t.Error("5-entry monotonic decline must warn")
	} else if !strings.Contains(warn, "sweep/18") || !strings.Contains(warn, "last 5") {
		t.Errorf("warning %q missing config or window", warn)
	}
	// A single up-tick anywhere breaks monotonicity.
	if warn := throughputTrendWarning(write("uptick.json", map[string][]float64{
		"18": {100, 99, 99.5, 97, 96},
	}), "18", 5); warn != "" {
		t.Errorf("non-monotonic series warned: %q", warn)
	}
	// Decline on another config must not implicate this one.
	if warn := throughputTrendWarning(declining, "6", 5); warn != "" {
		t.Errorf("config with no entries warned: %q", warn)
	}
	// Fewer entries than the window is inconclusive.
	if warn := throughputTrendWarning(declining, "18", 6); warn != "" {
		t.Errorf("short series warned: %q", warn)
	}
	// Only the trailing window counts: an old decline followed by recovery
	// is not a trend.
	if warn := throughputTrendWarning(write("recovered.json", map[string][]float64{
		"18": {100, 99, 98, 97, 96, 100, 99, 98},
	}), "18", 5); warn != "" {
		t.Errorf("recovered series warned: %q", warn)
	}
	// window < 2 disables the check; missing or corrupt files are advisory
	// no-ops.
	if warn := throughputTrendWarning(declining, "18", 0); warn != "" {
		t.Errorf("window=0 warned: %q", warn)
	}
	if warn := throughputTrendWarning(filepath.Join(dir, "absent.json"), "18", 5); warn != "" {
		t.Errorf("missing file warned: %q", warn)
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not an array"), 0o644); err != nil {
		t.Fatal(err)
	}
	if warn := throughputTrendWarning(corrupt, "18", 5); warn != "" {
		t.Errorf("corrupt file warned: %q", warn)
	}
}
