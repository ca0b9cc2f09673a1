// Command perfbench is the repository benchmark. One process runs one of
// four workloads for a fixed time, checks that the simulated outputs are
// correct, and prints every metric by name and unit:
//
//	solo      the pops preset through six 16K/256K machines in turn
//	sweep     the thor preset fanned out by sweep.Run to 18 machines
//	autotune  autotune.Search over the paper grammar on pops
//	service   two closed-loop HTTP clients driving an in-process vrsimd
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload solo --seed 1001 --seconds 15 --trace 0
//
// With --trace 0 the end-to-end metrics are measured untraced. With
// --trace 1 the run is split in two halves: an untraced half, then a half
// that records spans around the benchmark's own calls into each module;
// the per-layer metrics come from the traced half, and the difference
// between the halves is the tracing overhead. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seedSet  bool // false: use the workload's default (the preset's) seed
	seconds  float64
	trace    bool
	workers  int    // sweep workers, autotune Parallel, job workers, clients
	spans    string // traced runs write their spans here
	stateDir string // parent of the service workload's job state directory
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	fs.Int64Var(&o.seed, "seed", 0, "input seed (default: the workload's preset seed)")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1: add a traced half and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			o.seedSet = true
		}
	})
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	switch *traceFlag {
	case 0, 1:
		o.trace = *traceFlag == 1
	default:
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.workers = loadWorkers()
	o.spans = filepath.Join(".bench_build", "spans")
	o.stateDir = filepath.Join(".bench_build", "state")
	return o, nil
}

// maxWorkers caps every worker and client count: the benchmark's load is
// sized for a two-core host, and a larger host must not change its shape.
const maxWorkers = 2

// loadWorkers is the sweep worker, autotune Parallel, job worker and client
// count: the usable cores (nproc), capped at maxWorkers.
func loadWorkers() int {
	return min(runtime.NumCPU(), maxWorkers)
}

// workload is one named benchmark workload.
type workload struct {
	defaultSeed int64
	run         func(b *bench) error
}

var workloads = map[string]workload{
	"solo":     {defaultSeed: popsSeed, run: (*bench).solo},
	"sweep":    {defaultSeed: thorSeed, run: (*bench).sweep},
	"autotune": {defaultSeed: popsSeed, run: (*bench).autotune},
	"service":  {defaultSeed: serviceSeed, run: (*bench).service},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its report.
func run(o options, w io.Writer) error {
	wk := workloads[o.workload]
	if !o.seedSet {
		o.seed = wk.defaultSeed
	}
	b := newBench(o, wk.defaultSeed, w)
	b.printProvenance()
	if err := wk.run(b); err != nil {
		return err
	}
	if o.trace {
		if err := b.writeSpans(); err != nil {
			return err
		}
	}
	return b.finish()
}

// bench carries one run's settings, its tally of operations and failures,
// and the metrics it will print.
type bench struct {
	o          options
	w          io.Writer
	presetSeed int64             // the workload's default seed
	pins       map[string]string // digest per operation key, checked at the default seed
	scale      simScale          // trace scales of the simulation workloads
	mix        []mixJob          // the service workload's job mix
	attempted  int
	failed     int
	metrics    map[string]value
	spans      []*tracer // every traced half's spans, written at the end
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newBench(o options, presetSeed int64, w io.Writer) *bench {
	return &bench{o: o, w: w, presetSeed: presetSeed, pins: pinned, scale: benchScale, mix: jobMix(), metrics: map[string]value{}}
}

// defaultSeed reports whether the run uses the workload's preset seed, the
// only seed the pinned digests hold for.
func (b *bench) defaultSeed() bool { return b.o.seed == b.presetSeed }

// logf prints one human-readable line (never the last line of output).
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.w, format+"\n", args...)
}

// fail records one failed operation with its reason.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.logf("FAIL "+format, args...)
}

func (b *bench) printProvenance() {
	rev := telemetry.Build().Revision
	if rev == "" {
		rev = "unknown"
	}
	b.logf("# perfbench workload=%s seed=%d seconds=%g trace=%v", b.o.workload, b.o.seed, b.o.seconds, b.o.trace)
	b.logf("# host numcpu=%d gomaxprocs=%d workers=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), b.o.workers, runtime.Version(), rev)
}

// set records a metric for the final report.
func (b *bench) set(name string, v float64) {
	b.metrics[name] = value{Value: v, Unit: units[name]}
}

// halfBudget is the measured time of each half: the whole budget untraced,
// half of it each when a traced half follows.
func (b *bench) halfBudget() time.Duration {
	d := time.Duration(b.o.seconds * float64(time.Second))
	if b.o.trace {
		d /= 2
	}
	return d
}

// newTracer starts a traced half's span recorder.
func (b *bench) newTracer() *tracer {
	t := newTracer()
	b.spans = append(b.spans, t)
	return t
}

// finish prints the metric table and the JSON summary line. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set.
func (b *bench) finish() error {
	defs := endToEnd
	if b.o.trace {
		defs = perLayer()
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = v
		b.logf("%-40s %16.6g %s", d.name, v.Value, v.Unit)
	}
	if b.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	b.logf("fail_ratio %d/%d = %.4f", b.failed, b.attempted, float64(b.failed)/float64(b.attempted))
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(b.w, "%s\n", line)
	return err
}
