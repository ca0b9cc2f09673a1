package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/trace"
)

var _ trace.BatchReader = (*timedReader)(nil)

// tinyBench is a bench for one short pass of a workload at tiny scale.
func tinyBench(t *testing.T, workload string, traced bool) *bench {
	t.Helper()
	wk := workloads[workload]
	o := options{
		workload: workload, seed: wk.defaultSeed, seconds: 0.001, trace: traced,
		workers: loadWorkers(), spans: t.TempDir(), stateDir: t.TempDir(),
	}
	b := newBench(o, wk.defaultSeed, io.Discard)
	b.scale = simScale{solo: 0.002, sweep: 0.002, autotune: 0.002}
	b.pins = map[string]string{}
	return b
}

// summary is a run's last output line.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runTiny runs b's workload end to end and returns its output and summary.
func runTiny(t *testing.T, b *bench) (string, summary) {
	t.Helper()
	var buf bytes.Buffer
	b.w = &buf
	if err := workloads[b.o.workload].run(b); err != nil {
		t.Fatal(err)
	}
	if err := b.finish(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, out)
	}
	return out, s
}

var digestLine = regexp.MustCompile(`^digest (\S+/\S+)\s+([0-9a-f]{16})$`)

// digestsOf collects the per-operation digests a run printed.
func digestsOf(out string) map[string]string {
	m := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if g := digestLine.FindStringSubmatch(sc.Text()); g != nil {
			m[g[1]] = g[2]
		}
	}
	return m
}

func TestEveryWorkloadPrintsEveryEndToEndMetric(t *testing.T) {
	for _, name := range []string{"solo", "sweep", "autotune"} {
		t.Run(name, func(t *testing.T) {
			_, s := runTiny(t, tinyBench(t, name, false))
			if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", s.Correct, s.Attempted, s.Failed)
			}
			if len(s.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics, want %d", len(s.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := s.Metrics[d.name]; !ok || v.Unit != d.unit || v.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, v, d.unit)
				}
			}
		})
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	_, s := runTiny(t, tinyBench(t, "solo", true))
	if len(s.Metrics) != len(perLayer()) {
		t.Fatalf("%d metrics, want %d", len(s.Metrics), len(perLayer()))
	}
	for _, m := range soloMachineNames {
		for _, name := range []string{"system.ns_per_ref." + m, "core.l1_misses." + m} {
			if v := s.Metrics[name]; v.Value <= 0 {
				t.Errorf("%s = %v, want > 0", name, v.Value)
			}
		}
	}
}

func TestTamperedPinCountsAsFailure(t *testing.T) {
	out, _ := runTiny(t, tinyBench(t, "solo", false))
	pins := digestsOf(out)
	if len(pins) != len(soloMachineNames) {
		t.Fatalf("got digests %v, want one per solo machine", pins)
	}

	b := tinyBench(t, "solo", false)
	b.pins = pins
	if _, s := runTiny(t, b); s.Failed != 0 || !s.Correct {
		t.Fatalf("with the true pins: failed %d of %d", s.Failed, s.Attempted)
	}

	b = tinyBench(t, "solo", false)
	for k, v := range pins {
		b.pins[k] = v
	}
	b.pins["solo/rlt"] = "0000000000000000"
	_, s := runTiny(t, b)
	if s.Correct || s.Failed*len(soloMachineNames) != s.Attempted {
		t.Fatalf("tampered pin: correct=%v, failed %d of %d; want the rlt machine of every pass to fail",
			s.Correct, s.Failed, s.Attempted)
	}
}

func TestFailedJobCountsAsFailure(t *testing.T) {
	b := tinyBench(t, "service", false)
	b.o.seconds = 0.3
	b.mix = []mixJob{
		{"run-pops-tiny", jobs.Config{Kind: jobs.KindRun, Preset: "pops", Scale: 0.005}},
		// A full-length trace cannot finish inside a millisecond deadline.
		{"run-pops-deadline", jobs.Config{Kind: jobs.KindRun, Preset: "pops", Deadline: "1ms"}},
	}
	out, s := runTiny(t, b)
	if s.Correct || s.Failed == 0 || s.Failed > (s.Attempted+1)/2 {
		t.Fatalf("correct=%v, failed %d of %d: want exactly the deadline jobs to fail\n%s", s.Correct, s.Failed, s.Attempted, out)
	}
}

func TestTracedServiceRun(t *testing.T) {
	b := tinyBench(t, "service", true)
	b.o.seconds = 0.6
	b.mix = []mixJob{
		{"run-pops-tiny", jobs.Config{Kind: jobs.KindRun, Preset: "pops", Scale: 0.01, Timed: true}},
		{"sweep-abaqus-long", jobs.Config{Kind: jobs.KindSweep, Preset: "abaqus", Scale: 0.2,
			Machines: []jobs.MachineSpec{{Org: "rlt"}, {Org: "vr", Victim: 4, L1Size: 8 << 10}}}},
	}
	out, s := runTiny(t, b)
	if !s.Correct || s.Attempted < 2 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", s.Correct, s.Attempted, s.Failed, out)
	}
	for _, name := range []string{"jobs.submit_ms", "jobs.run_ms", "jobs.status_polls_per_job", "jobs.state_bytes", "checkpoint.captures"} {
		if s.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, s.Metrics[name].Value)
		}
	}
}

func TestCataloguesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())

	data, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var table struct {
		PerLayer []struct {
			Metrics []string `json:"metrics"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &table); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer() {
		found := false
		for _, row := range table.PerLayer {
			for _, pat := range row.Metrics {
				if ok, _ := filepath.Match(pat, d.name); ok {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("layers.json has no row for %s", d.name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "read", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "read", Start: 50, End: 60},
	}
	if got := selfTimes(spans)[1]; got != 70*time.Nanosecond {
		t.Fatalf("self time %v, want 70ns", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input")
	}
}

func TestMachineLatencies(t *testing.T) {
	var jobs []time.Duration
	for pass := 1; pass <= 3; pass++ {
		for m := range soloMachineNames {
			jobs = append(jobs, time.Duration(pass*(m+1))*time.Millisecond)
		}
	}
	got := machineLatencies(jobs)
	for m, ms := range got {
		if want := float64(2 * (m + 1)); ms != want {
			t.Errorf("machine %s: %v ms, want its median run %v ms", soloMachineNames[m], ms, want)
		}
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "sweep", "--seconds", "3"}, io.Discard)
	if err != nil || o.seedSet || o.seconds != 3 || o.trace {
		t.Fatalf("got %+v, %v", o, err)
	}
	o, err = parseFlags([]string{"--workload", "solo", "--seed", "0", "--trace", "1"}, io.Discard)
	if err != nil || !o.seedSet || o.seed != 0 || !o.trace || o.workers < 1 || o.workers > maxWorkers {
		t.Fatalf("got %+v, %v", o, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"}, {"--workload", "solo", "--trace", "2"}, {"--workload", "solo", "--seconds", "0"},
	} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("%v: accepted", bad)
		}
	}
}
