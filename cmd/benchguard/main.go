// Command benchguard compares the sweep engine's current throughput against
// the recorded baseline in BENCH_sweep.json and fails on a >10% regression.
// It runs BenchmarkSweepNConfigs a few times and takes the best run, so a
// single noisy iteration on a loaded machine does not fail the build; a
// real regression shows up in every run.
//
// Besides the pass/fail gate, every run is appended to a trajectory file
// (BENCH_history.json by default) so throughput trends across PRs stay
// visible instead of collapsing into a single boolean.
//
// Usage (from the repository root, as ci.sh does):
//
//	go run ./cmd/benchguard
//	go run ./cmd/benchguard -count 4 -threshold 0.85 -history ""
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobs"
)

type options struct {
	baseline    string
	history     string
	config      string
	count       int
	threshold   float64
	trendWindow int
	verbose     bool
}

// historyEntry is one appended BENCH_history.json record.
type historyEntry struct {
	Time       string  `json:"time"` // RFC 3339, UTC
	Config     string  `json:"config"`
	RefsPerSec float64 `json:"refsPerSec"` // best of -count runs
	Baseline   float64 `json:"baseline"`
	Threshold  float64 `json:"threshold"`
	Pass       bool    `json:"pass"`
	GoVersion  string  `json:"goVersion"`
	NumCPU     int     `json:"numCPU"`
	Gomaxprocs int     `json:"gomaxprocs"`
	// GateSkipped explains why the pass/fail gate did not apply (e.g. the
	// baseline was recorded on a different core count); empty otherwise.
	GateSkipped string `json:"gateSkipped,omitempty"`
	// LatencyMS is the job-server submit→first-result latency (vrsimd
	// entries only): the wall-clock time from a job's admission to its
	// report being readable, best of the measured runs.
	LatencyMS float64 `json:"latencyMS,omitempty"`
}

// appendHistory adds one entry to the trajectory file (created on first
// use). The file is a plain JSON array so it stays trivially parseable and
// diffable.
func appendHistory(path string, e historyEntry) error {
	var entries []historyEntry
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case os.IsNotExist(err):
	default:
		return err
	}
	entries = append(entries, e)
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	var o options
	flag.StringVar(&o.baseline, "baseline", "BENCH_sweep.json", "baseline file")
	flag.StringVar(&o.history, "history", "BENCH_history.json",
		"append each run to this trajectory file (\"\" disables)")
	flag.StringVar(&o.config, "config", "6", "BenchmarkSweepNConfigs sub-benchmark to guard")
	flag.IntVar(&o.count, "count", 3, "benchmark repetitions (best run wins)")
	flag.Float64Var(&o.threshold, "threshold", 0.9, "fail below baseline*threshold")
	flag.IntVar(&o.trendWindow, "trend-window", 5,
		"warn when the last N history entries decline monotonically (0 disables)")
	flag.BoolVar(&o.verbose, "v", false, "print raw benchmark output")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	want, baseCPUs, err := baselineRefsPerSec(o.baseline, o.config, runtime.NumCPU())
	if err != nil {
		return err
	}
	// Throughput on N cores is not comparable to a baseline recorded on M:
	// the gate would fail (or pass) on hardware, not on the code. With no
	// baseline for this core count, refuse the diff, but still run and
	// record the measurement so the trajectory keeps a per-host record.
	skipped := ""
	if baseCPUs != 0 && baseCPUs != runtime.NumCPU() {
		skipped = fmt.Sprintf("baseline recorded on %d CPUs, this host has %d",
			baseCPUs, runtime.NumCPU())
	}
	out, err := runBenchmark(o)
	if err != nil {
		return err
	}
	if o.verbose {
		fmt.Print(out)
	}
	best, runs, err := bestRefsPerSec(out, o.config)
	if err != nil {
		return err
	}
	floor := want * o.threshold
	fmt.Printf("benchguard: sweep/%s best of %d runs: %.0f refs/s (baseline %.0f, floor %.0f)\n",
		o.config, runs, best, want, floor)
	if o.history != "" {
		// A failing run is recorded too: the trajectory must show the dip,
		// not just the runs that survived the gate.
		e := historyEntry{
			Time:        time.Now().UTC().Format(time.RFC3339),
			Config:      o.config,
			RefsPerSec:  best,
			Baseline:    want,
			Threshold:   o.threshold,
			Pass:        skipped != "" || best >= floor,
			GoVersion:   runtime.Version(),
			NumCPU:      runtime.NumCPU(),
			Gomaxprocs:  runtime.GOMAXPROCS(0),
			GateSkipped: skipped,
		}
		if err := appendHistory(o.history, e); err != nil {
			return err
		}
		// Trend check: a slow leak of throughput passes every per-PR gate
		// (each dip under 10%) yet compounds across PRs. Warn — never fail —
		// when the recorded trajectory declines monotonically.
		if warn := throughputTrendWarning(o.history, o.config, o.trendWindow); warn != "" {
			fmt.Printf("benchguard: WARNING: %s\n", warn)
		}
	}
	// The job-server latency rides along in the same trajectory file: no
	// gate (latency floors on shared machines gate the weather, not the
	// code), but the trend across PRs stays on record.
	if o.history != "" {
		lat, err := measureJobLatency(o.count)
		if err != nil {
			return fmt.Errorf("job-server latency: %w", err)
		}
		fmt.Printf("benchguard: vrsimd submit-to-first-result best of %d runs: %.1fms\n",
			o.count, lat)
		e := historyEntry{
			Time:       time.Now().UTC().Format(time.RFC3339),
			Config:     "vrsimd-submit",
			LatencyMS:  lat,
			Pass:       true,
			GoVersion:  runtime.Version(),
			NumCPU:     runtime.NumCPU(),
			Gomaxprocs: runtime.GOMAXPROCS(0),
		}
		if err := appendHistory(o.history, e); err != nil {
			return err
		}
	}
	if skipped != "" {
		fmt.Printf("benchguard: gate skipped: %s\n", skipped)
		return nil
	}
	if best < floor {
		return fmt.Errorf("throughput regression: %.0f refs/s is below %.0f (%.0f%% of the %.0f baseline)",
			best, floor, o.threshold*100, want)
	}
	return nil
}

// throughputTrendWarning inspects the trajectory file just appended to and
// returns a warning when the last window entries for this config decline
// monotonically (strictly, entry over entry). It is advisory only: any error
// or an inconclusive trajectory returns "".
func throughputTrendWarning(path, config string, window int) string {
	if window < 2 {
		return ""
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	var entries []historyEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return ""
	}
	var series []float64
	for _, e := range entries {
		if e.Config == config && e.RefsPerSec > 0 {
			series = append(series, e.RefsPerSec)
		}
	}
	if len(series) < window {
		return ""
	}
	series = series[len(series)-window:]
	for i := 1; i < len(series); i++ {
		if series[i] >= series[i-1] {
			return ""
		}
	}
	return fmt.Sprintf("sweep/%s throughput declined across the last %d recorded runs "+
		"(%.0f → %.0f refs/s, -%.1f%%): each step passed the gate, the trend did not",
		config, window, series[0], series[len(series)-1],
		100*(1-series[len(series)-1]/series[0]))
}

// measureJobLatency runs an in-process job server and measures the
// wall-clock time from Submit returning to the job's report being readable
// — the service-level "how long until a small job's first result" figure.
// Best of count runs, in milliseconds.
func measureJobLatency(count int) (float64, error) {
	dir, err := os.MkdirTemp("", "benchguard-jobs-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	m, err := jobs.Open(jobs.Options{Dir: dir, Workers: 1})
	if err != nil {
		return 0, err
	}
	defer m.Close()
	config := []byte(`{"kind":"run","preset":"pops","scale":0.01}`)
	best := 0.0
	for i := 0; i < count; i++ {
		start := time.Now()
		st, err := m.Submit(config)
		if err != nil {
			return 0, err
		}
		for {
			cur, ok := m.Get(st.ID)
			if !ok {
				return 0, fmt.Errorf("job %s vanished", st.ID)
			}
			if jobs.Terminal(cur.State) {
				if cur.State != jobs.StateDone {
					return 0, fmt.Errorf("job %s: %s (%s)", st.ID, cur.State, cur.Error)
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := m.Report(st.ID); err != nil {
			return 0, err
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		if best == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// baselineRefsPerSec reads the recorded aggregate throughput for one
// sub-benchmark from the baseline file, along with the core count the
// baseline was measured on (0 when the file predates that field). A
// baseline recorded on cpus cores wins over the file's primary one.
func baselineRefsPerSec(path, config string, cpus int) (float64, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var doc struct {
		Sweep  map[string]float64 `json:"BenchmarkSweepNConfigs_aggregate_refs_per_sec"`
		NumCPU int                `json:"numCPU"`
		// ByNumCPU holds baselines recorded on other core counts.
		ByNumCPU map[int]map[string]float64 `json:"BenchmarkSweepNConfigs_aggregate_refs_per_sec_by_numCPU"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	if want := doc.ByNumCPU[cpus][config]; want > 0 {
		return want, cpus, nil
	}
	want, ok := doc.Sweep[config]
	if !ok || want <= 0 {
		return 0, 0, fmt.Errorf("%s: no baseline for sweep config %q", path, config)
	}
	return want, doc.NumCPU, nil
}

func runBenchmark(o options) (string, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", fmt.Sprintf("^BenchmarkSweepNConfigs$/^%s$", o.config),
		"-benchtime", "1x", "-count", strconv.Itoa(o.count), ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go test -bench: %w\n%s", err, out)
	}
	return string(out), nil
}

// bestRefsPerSec parses `go test -bench` output lines like
//
//	BenchmarkSweepNConfigs/6-8   1   170ms/op   6619246 refs/s   0 B/op
//
// and returns the best refs/s across repetitions.
func bestRefsPerSec(out, config string) (best float64, runs int, err error) {
	prefix := "BenchmarkSweepNConfigs/" + config
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		f := strings.Fields(line)
		for i := 1; i < len(f); i++ {
			if f[i] != "refs/s" {
				continue
			}
			v, perr := strconv.ParseFloat(f[i-1], 64)
			if perr != nil {
				return 0, 0, fmt.Errorf("bad refs/s value in %q: %v", line, perr)
			}
			runs++
			if v > best {
				best = v
			}
		}
	}
	if runs == 0 {
		return 0, 0, fmt.Errorf("no %s refs/s samples in benchmark output:\n%s", prefix, out)
	}
	return best, runs, nil
}
