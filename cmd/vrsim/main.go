// Command vrsim runs a workload through a configured cache hierarchy and
// prints the statistics the paper's evaluation is built on.
//
// Usage:
//
//	vrsim -preset pops -org vr -l1 16K -l2 256K
//	vrsim -trace pops.trc -trace-preset pops -cpus 4 -org rr
//	vrsim -preset abaqus -org vr -split -scale 0.1
//
// When replaying a saved trace produced by cmd/tracegen, pass the same
// preset via -trace-preset so the shared-segment mappings (the synonym
// source) are reconstructed identically.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/cycles"
	"repro/internal/monitor"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/timemodel"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// options collects every knob of a single-machine run.
type options struct {
	preset      string
	traceFile   string
	tracePreset string
	org         string
	l1, l2      string
	b1, b2      uint64
	a1, a2      int
	split       bool
	cpus        int
	scale       float64
	jsonOut     bool
	victim      int // victim cache entries between the levels (0 = none)
	rltEntries  int // reverse-lookup table entries for -org rlt (0 = auto)

	events       bool   // stream the event log to stderr
	eventsFilter string // comma-separated kinds/categories for -events
	chromeTrace  string // write a Chrome trace_event JSON file
	metricsEvery uint64 // collect windowed metrics every N references

	audit      bool   // verify structural invariants after the run
	auditEvery uint64 // also audit every N references (implies audit)
	snapshot   string // write the final state snapshot to this file
	httpAddr   string // serve live monitoring endpoints on this address
	hist       bool   // collect per-reference latency histograms (-timed)

	timed      bool   // attach the cycle engine and measure access times
	t1, t2, tm uint64 // service latencies, cycles
	tVictim    uint64 // victim-cache hit time, cycles (0 = same as t2)
	tlbPenalty uint64 // extra cycles per TLB miss
	ctxCost    uint64 // flush cost per context switch
	busMemOcc  uint64 // bus occupancy per memory fill transaction
	busCtrlOcc uint64 // bus occupancy per invalidate/update broadcast
	busWBOcc   uint64 // bus occupancy per background write-back
	contention bool   // charge bus queueing delay to the requester

	checkpointFile string // save a checkpoint here after -checkpoint-at records
	checkpointAt   uint64 // trace records to run before saving
	restoreFile    string // resume a run from this checkpoint

	traceSpans      string // write sampled causal spans as an OTLP-style JSON file (-timed)
	spanChrome      string // write sampled causal spans as nested Chrome trace events (-timed)
	spanEvery       uint64 // span sampling interval, references
	flightrec       string // arm the flight recorder, bundles into this directory
	flightrecLat    uint64 // also dump when an access takes this many cycles (-timed)
	flightrecEvents int    // flight-recorder ring size per CPU
	attr            bool   // cycle-attribution profile (-timed)
	attrOut         string // also write the attribution text report here ("-" = stdout)
	attrTopK        int    // heavy-hitter sketch size
	injectViolation bool   // inject a synthetic audit violation (CI smoke)
}

// telemetryActive reports whether any flag needs the telemetry layer (and
// therefore an event probe).
func (o options) telemetryActive() bool {
	return o.traceSpans != "" || o.spanChrome != "" || o.attr ||
		o.flightrec != "" || o.flightrecLat > 0
}

// cycleParams assembles the engine's latency inputs from the flags.
func (o options) cycleParams() cycles.Params {
	return cycles.Params{
		T1: o.t1, T2: o.t2, TM: o.tm,
		TVictim:        o.tVictim,
		TLBMissPenalty: o.tlbPenalty,
		CtxSwitchCost:  o.ctxCost,
		BusMemOcc:      o.busMemOcc,
		BusCtrlOcc:     o.busCtrlOcc,
		BusWBOcc:       o.busWBOcc,
		Contention:     o.contention,
	}
}

func main() {
	var o options
	flag.StringVar(&o.preset, "preset", "", "generate and run a workload preset (pops, thor, abaqus)")
	flag.StringVar(&o.traceFile, "trace", "", "replay a binary trace file instead of generating")
	flag.StringVar(&o.tracePreset, "trace-preset", "", "preset whose shared mappings the trace was generated with")
	flag.StringVar(&o.org, "org", "vr", "organization: vr, rr, rrnoincl, rlt, vr-wt, rr-wt")
	flag.StringVar(&o.l1, "l1", "16K", "first-level cache size")
	flag.StringVar(&o.l2, "l2", "256K", "second-level cache size")
	flag.Uint64Var(&o.b1, "b1", 16, "first-level block size")
	flag.Uint64Var(&o.b2, "b2", 32, "second-level block size")
	flag.IntVar(&o.a1, "a1", 1, "first-level associativity")
	flag.IntVar(&o.a2, "a2", 1, "second-level associativity")
	flag.BoolVar(&o.split, "split", false, "split the first level into I and D caches")
	flag.IntVar(&o.cpus, "cpus", 0, "CPU count (default: from preset)")
	flag.Float64Var(&o.scale, "scale", 1.0, "preset trace length scale factor")
	flag.IntVar(&o.victim, "victim", 0, "victim cache entries between the levels (0 = none)")
	flag.IntVar(&o.rltEntries, "rlt-entries", 0, "reverse-lookup table entries for -org rlt (0 = half the L1 lines)")
	flag.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON instead of text")
	flag.BoolVar(&o.events, "events", false, "stream the event log to stderr")
	flag.StringVar(&o.eventsFilter, "events-filter", "",
		"comma-separated event kinds or categories to keep with -events (e.g. synonym,coherence)")
	flag.StringVar(&o.chromeTrace, "chrome-trace", "",
		"write a Chrome trace_event JSON file (open in chrome://tracing or Perfetto)")
	flag.Uint64Var(&o.metricsEvery, "metrics-every", 0,
		"report windowed metrics every N references (text: printed live; -json: embedded)")
	flag.BoolVar(&o.audit, "audit", false,
		"verify structural invariants after the run (non-zero exit on violation)")
	flag.Uint64Var(&o.auditEvery, "audit-every", 0,
		"also audit every N references while running (implies -audit)")
	flag.StringVar(&o.snapshot, "snapshot", "",
		"write the final machine-state snapshot (diffable JSON) to this file")
	flag.StringVar(&o.httpAddr, "http", "",
		"serve live monitoring endpoints on this address while running (e.g. 127.0.0.1:8080)")
	flag.BoolVar(&o.hist, "hist", false,
		"collect per-reference latency histograms (requires -timed)")
	flag.BoolVar(&o.timed, "timed", false, "measure access times with the cycle engine")
	flag.Uint64Var(&o.t1, "t1", 1, "first-level hit time, cycles (-timed)")
	flag.Uint64Var(&o.t2, "t2", 4, "second-level hit time, cycles (-timed)")
	flag.Uint64Var(&o.tm, "tm", 20, "memory time, cycles (-timed)")
	flag.Uint64Var(&o.tVictim, "tvictim", 0, "victim-cache hit time, cycles; 0 = same as -t2 (-timed)")
	flag.Uint64Var(&o.tlbPenalty, "tlb-penalty", 0, "extra cycles per TLB miss (-timed)")
	flag.Uint64Var(&o.ctxCost, "ctx-cost", 0, "flush cost per context switch, cycles (-timed)")
	flag.Uint64Var(&o.busMemOcc, "bus-occ", 0, "bus occupancy per memory fill, cycles (-timed)")
	flag.Uint64Var(&o.busCtrlOcc, "bus-ctrl-occ", 0, "bus occupancy per invalidate/update, cycles (-timed)")
	flag.Uint64Var(&o.busWBOcc, "bus-wb-occ", 0, "bus occupancy per write-back, cycles (-timed)")
	flag.BoolVar(&o.contention, "contention", true, "charge bus queueing to the requester (-timed)")
	flag.StringVar(&o.checkpointFile, "checkpoint", "",
		"save a checkpoint to this file after -checkpoint-at records and exit")
	flag.Uint64Var(&o.checkpointAt, "checkpoint-at", 0,
		"trace records to simulate before saving the -checkpoint file")
	flag.StringVar(&o.restoreFile, "restore", "", "resume the run from this checkpoint file")
	flag.StringVar(&o.traceSpans, "trace-spans", "",
		"write sampled causal span trees to this OTLP-style JSON file (requires -timed)")
	flag.StringVar(&o.spanChrome, "trace-spans-chrome", "",
		"write sampled causal span trees as nested Chrome trace events (requires -timed)")
	flag.Uint64Var(&o.spanEvery, "span-every", telemetry.DefaultSpanSample,
		"sample one reference in every N for span tracing")
	flag.StringVar(&o.flightrec, "flightrec", "",
		"arm the flight recorder: write post-mortem bundles into this directory")
	flag.Uint64Var(&o.flightrecLat, "flightrec-latency", 0,
		"also dump a bundle when a reference takes this many cycles (requires -timed)")
	flag.IntVar(&o.flightrecEvents, "flightrec-events", telemetry.DefaultRecEventsPerCPU,
		"flight-recorder ring size, events per CPU")
	flag.BoolVar(&o.attr, "attr", false,
		"profile cycle attribution by mechanism and heavy hitters (requires -timed)")
	flag.StringVar(&o.attrOut, "attr-out", "",
		"also write the attribution text report to this file (\"-\" = stdout)")
	flag.IntVar(&o.attrTopK, "attr-topk", telemetry.DefaultAttrTopK,
		"heavy-hitter sketch size for -attr")
	flag.BoolVar(&o.injectViolation, "inject-violation", false,
		"inject one synthetic audit violation (exercises the failure path; requires -audit)")
	compare := flag.Bool("compare", false, "run every organization on the same workload and compare")
	version := flag.Bool("version", false, "print build information and exit")
	verifyBundle := flag.String("verify-bundle", "", "parse a flight-recorder bundle file, print its summary, and exit")
	flag.Parse()

	if *version {
		fmt.Println("vrsim", telemetry.Build())
		return
	}
	if *verifyBundle != "" {
		if err := printBundle(os.Stdout, *verifyBundle); err != nil {
			fmt.Fprintln(os.Stderr, "vrsim:", err)
			os.Exit(1)
		}
		return
	}

	if *compare {
		if err := runCompare(o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "vrsim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vrsim:", err)
		os.Exit(1)
	}
}

// runCompare runs the identical workload under every organization — the
// paper's three, the write-through first-level variants, and the
// reverse-lookup synonym table — and prints the headline comparison
// columns. The machine flags apply to every row, so a flag some rows
// cannot take (-split, -rlt-entries) fails the comparison.
func runCompare(o options, stdout io.Writer) error {
	if o.preset == "" {
		return fmt.Errorf("-compare requires -preset")
	}
	cfg, err := tracegen.PresetByName(o.preset)
	if err != nil {
		return err
	}
	if o.scale != 1 {
		cfg = cfg.Scaled(o.scale)
	}
	cpus := o.cpus
	if cpus == 0 {
		cpus = cfg.CPUs
	}
	fmt.Fprintf(stdout, "%-13s %-7s %-7s %-12s %-12s %-14s %-10s %s\n",
		"organization", "h1", "h2", "TLB lookups", "writebacks", "msgs to L1", "vic hits", "Tacc(t2=4t1)")
	for _, org := range []string{"vr", "rr", "rrnoincl", "vr-wt", "rr-wt", "rlt"} {
		o.org = org
		sc, err := machineConfig(o)
		if err != nil {
			return err
		}
		sc.CPUs, sc.PageSize = cpus, cfg.PageSize
		sys, err := system.New(sc)
		if err != nil {
			return err
		}
		if err := cfg.SetupSharedMappings(sys.MMU()); err != nil {
			return err
		}
		gen, err := tracegen.New(cfg)
		if err != nil {
			return err
		}
		if err := sys.Run(gen); err != nil {
			return err
		}
		agg := sys.Aggregate()
		var tlbLookups, wbs, msgs, vhits uint64
		for cpu := 0; cpu < sys.CPUs(); cpu++ {
			st := sys.Stats(cpu)
			tlbLookups += st.TLB.Hits + st.TLB.Misses
			wbs += st.WriteBacks
			msgs += st.Coherence.Total()
			vhits += st.VictimHits
		}
		tacc := timemodel.AccessTime(timemodel.DefaultParams(agg.H1, agg.H2))
		label := org // the paper's three organizations print their table labels
		if !sc.L1WriteThrough && sc.Organization != system.VRRLT {
			label = fmt.Sprint(sc.Organization)
		}
		fmt.Fprintf(stdout, "%-13s %-7.3f %-7.3f %-12d %-12d %-14d %-10d %.3f\n",
			label, agg.H1, agg.H2, tlbLookups, wbs, msgs, vhits, tacc)
	}
	return nil
}

func parseSize(s string) (uint64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

// machineConfig maps the machine flags onto a system.Config; the caller
// sets the CPU count, page size and observers. Whether the result is a
// legal machine is system.Config.Validate's call, made by system.New.
func machineConfig(o options) (system.Config, error) {
	org, writeThrough, err := system.ParseOrganization(o.org)
	if err != nil {
		return system.Config{}, err
	}
	l1Size, err := parseSize(o.l1)
	if err != nil {
		return system.Config{}, err
	}
	l2Size, err := parseSize(o.l2)
	if err != nil {
		return system.Config{}, err
	}
	return system.Config{
		Organization:   org,
		L1:             cache.Geometry{Size: l1Size, Block: o.b1, Assoc: o.a1},
		Split:          o.split,
		L2:             cache.Geometry{Size: l2Size, Block: o.b2, Assoc: o.a2},
		L1WriteThrough: writeThrough,
		VictimEntries:  o.victim,
		RLTEntries:     o.rltEntries,
	}, nil
}

// buildProbe assembles the observability layer requested on the command
// line; it returns a nil probe (zero overhead) when no flag asks for one.
// The -chrome-trace sink is attached later by run, once nothing can reject
// the invocation, so a refused run leaves an existing file untouched.
// Live window lines go to stdout so they share the report's writer (tests
// capture both), never interleaving with -json, which suppresses them; the
// -events log goes to stderr.
func buildProbe(o options, stdout, stderr io.Writer) (*probe.Probe, *probe.Windows, error) {
	if !o.events && o.chromeTrace == "" && o.metricsEvery == 0 {
		if o.eventsFilter != "" {
			return nil, nil, fmt.Errorf("-events-filter requires -events")
		}
		return nil, nil, nil
	}
	pr := probe.New()
	if o.events {
		filter, err := probe.ParseFilter(o.eventsFilter)
		if err != nil {
			return nil, nil, err
		}
		pr.AddSink(probe.NewLog(stderr, filter))
	} else if o.eventsFilter != "" {
		return nil, nil, fmt.Errorf("-events-filter requires -events")
	}
	var windows *probe.Windows
	if o.metricsEvery > 0 {
		windows = probe.NewWindows(o.metricsEvery)
		if !o.jsonOut {
			windows.OnClose = func(w probe.WindowMetrics) {
				fmt.Fprintf(stdout, "refs %d-%d: h1 %.3f, h2 %.3f, syn/ref %.5f, bus/ref %.3f, coh->L1 %d\n",
					w.FirstRef, w.LastRef, w.L1Ratio(), w.L2Ratio(),
					w.SynonymRate(), w.BusOccupancy(), w.CohToL1)
			}
		}
		pr.AddSink(windows)
	}
	return pr, windows, nil
}

// run executes one simulation. The report and the live window lines go to
// stdout; the -events log and the -http address line go to stderr.
func run(o options, stdout, stderr io.Writer) error {
	sc, err := machineConfig(o)
	if err != nil {
		return err
	}
	pr, windows, err := buildProbe(o, stdout, stderr)
	if err != nil {
		return err
	}
	if pr == nil && o.telemetryActive() {
		// The telemetry layer rides the probe event stream; arm a probe
		// even when no event flag asked for one.
		pr = probe.New()
	}
	if err := validateTelemetryFlags(o); err != nil {
		return err
	}
	var eng *cycles.Engine
	if o.timed {
		if eng, err = cycles.New(o.cycleParams(), pr); err != nil {
			return err
		}
	} else if p := o.cycleParams(); p != (cycles.Params{T1: 1, T2: 4, TM: 20, Contention: true}) && p != (cycles.Params{}) {
		// A latency flag moved off its default without -timed: the value
		// would be silently ignored, so reject the combination. The zero
		// struct is also accepted (options built without flag parsing).
		return fmt.Errorf("latency flags require -timed")
	}
	if o.hist && !o.timed {
		return fmt.Errorf("-hist requires -timed")
	}
	if err := validateCheckpointFlags(o); err != nil {
		return err
	}
	var aud *audit.Auditor
	if o.audit || o.auditEvery > 0 {
		aud = audit.New(o.auditEvery)
	}
	if o.injectViolation {
		if aud == nil {
			return fmt.Errorf("-inject-violation requires -audit or -audit-every")
		}
		aud.InjectOnce(audit.Violation{
			Invariant: audit.InvInclusion, CPU: -1, Location: "injected",
			Detail: "synthetic violation injected by -inject-violation",
		})
	}

	var reader trace.Reader
	var wlCfg *tracegen.Config
	switch {
	case o.preset != "" && o.traceFile != "":
		return fmt.Errorf("-preset and -trace are mutually exclusive")
	case o.preset != "":
		cfg, err := tracegen.PresetByName(o.preset)
		if err != nil {
			return err
		}
		if o.scale != 1 {
			cfg = cfg.Scaled(o.scale)
		}
		gen, err := tracegen.New(cfg)
		if err != nil {
			return err
		}
		reader, wlCfg = gen, &cfg
	case o.traceFile != "":
		f, err := os.Open(o.traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		reader, err = trace.OpenBinary(f)
		if err != nil {
			return err
		}
		if o.tracePreset != "" {
			cfg, err := tracegen.PresetByName(o.tracePreset)
			if err != nil {
				return err
			}
			wlCfg = &cfg
		}
	default:
		return fmt.Errorf("one of -preset or -trace is required")
	}

	cpus := o.cpus
	if cpus == 0 {
		if wlCfg != nil {
			cpus = wlCfg.CPUs
		} else {
			cpus = 1
		}
	}
	if o.hist {
		eng.SetLatencies(monitor.NewLatencies(cpus))
	}
	sc.CPUs, sc.Probe, sc.Cycles, sc.Audit = cpus, pr, eng, aud
	if wlCfg != nil {
		sc.PageSize = wlCfg.PageSize
	}
	sys, err := system.New(sc)
	if err != nil {
		return err
	}
	if wlCfg != nil {
		if err := wlCfg.SetupSharedMappings(sys.MMU()); err != nil {
			return err
		}
	}
	if o.checkpointFile != "" {
		n, err := sys.RunRecords(reader, o.checkpointAt)
		if err != nil {
			return err
		}
		if n < o.checkpointAt {
			return fmt.Errorf("trace ended after %d records; cannot checkpoint at %d", n, o.checkpointAt)
		}
		ck, err := checkpoint.Capture(sys, runSignature(sc, wlCfg, o), n)
		if err != nil {
			return err
		}
		if err := checkpoint.WriteFile(o.checkpointFile, ck); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "checkpoint: %d records saved to %s\n", n, o.checkpointFile)
		return nil
	}
	if o.restoreFile != "" {
		ck, err := checkpoint.ReadFile(o.restoreFile)
		if err != nil {
			return err
		}
		if err := checkpoint.Restore(sys, ck, runSignature(sc, wlCfg, o)); err != nil {
			return err
		}
		// The fresh generator built above replays from record zero; skip it
		// forward to the checkpoint's cursor and continue from there.
		if err := checkpoint.ResumeReader(reader, ck.Cursor); err != nil {
			return err
		}
	}

	// Every check that can refuse the run has passed: create the probe's
	// and the span tracer's output files.
	if o.chromeTrace != "" {
		f, err := os.Create(o.chromeTrace)
		if err != nil {
			return err
		}
		pr.AddSink(probe.NewChromeTrace(f))
	}

	// The telemetry layer: span tracer, cycle-attribution profiler, and
	// flight recorder, all riding the probe stream.
	var tracer *telemetry.Tracer
	if o.traceSpans != "" || o.spanChrome != "" {
		var exps []telemetry.SpanExporter
		if o.traceSpans != "" {
			f, err := os.Create(o.traceSpans)
			if err != nil {
				return err
			}
			exps = append(exps, telemetry.NewOTLPWriter(f))
		}
		if o.spanChrome != "" {
			f, err := os.Create(o.spanChrome)
			if err != nil {
				return err
			}
			exps = append(exps, telemetry.NewChromeSpanWriter(f))
		}
		tracer = telemetry.NewTracer(o.spanEvery, exps...)
		pr.AddSink(tracer)
	}
	var attrProf *telemetry.Attribution
	if o.attr {
		mc := sys.Config()
		attrProf = telemetry.NewAttribution(telemetry.AttrConfig{
			TopK: o.attrTopK, PageSize: mc.PageSize,
			L2Sets: mc.L2.Sets(), L2Block: mc.L2.Block,
		})
		pr.AddSink(attrProf)
	}
	var rec *telemetry.Recorder
	if o.flightrec != "" || o.flightrecLat > 0 {
		rec = telemetry.NewRecorder(telemetry.RecorderConfig{
			Dir:              o.flightrec,
			EventsPerCPU:     o.flightrecEvents,
			LatencyThreshold: o.flightrecLat,
			Label: fmt.Sprintf("%v %dcpu l1=%v l2=%v",
				sc.Organization, sc.CPUs, sc.L1, sc.L2),
			Snapshot: sys.AuditSnapshot,
		})
		pr.AddSink(rec)
		aud.AddOnAudit(rec.OnAudit)
	}

	// Live monitoring: the server publishes a fresh state copy at startup,
	// at every closed metrics window, and once more after the run.
	var srv *monitor.Server
	var lastWindow *probe.WindowMetrics
	publish := func() {
		st := monitor.State{Refs: sys.Refs(), Window: lastWindow}
		if pr != nil {
			st.Events = pr.Counts().Map()
		}
		if eng != nil {
			st.Latencies = eng.Latencies().Clone()
		}
		st.Audits, st.Violations = aud.Audits(), aud.Total()
		if attrProf != nil {
			rep := attrProf.Report()
			st.Blame, st.TopK = rep.BlameMetrics(), rep.TopMetrics()
		}
		if rec != nil {
			st.FlightDumps = rec.Dumps()
		}
		snap := sys.AuditSnapshot()
		st.Occupancy = monitor.Occupancy(snap)
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err == nil {
			st.Snapshot = buf.Bytes()
		}
		srv.Publish(st)
	}
	if o.httpAddr != "" {
		if srv, err = monitor.Start(o.httpAddr); err != nil {
			return err
		}
		defer srv.Close()
		if rec != nil {
			srv.SetFlightDump(func() ([]byte, error) {
				return rec.RequestDump("http /flightrec", 5*time.Second)
			})
		}
		fmt.Fprintf(stderr, "vrsim: monitoring on http://%s\n", srv.Addr())
		if windows != nil {
			prev := windows.OnClose
			windows.OnClose = func(wm probe.WindowMetrics) {
				if prev != nil {
					prev(wm)
				}
				wcopy := wm
				lastWindow = &wcopy
				publish()
			}
		}
		publish()
	}

	if err := sys.Run(reader); err != nil {
		pr.Close()
		return err
	}
	// Always finish with an on-demand audit so -audit alone (no period)
	// still checks the final state. It runs before the probe closes so an
	// armed flight recorder can flush the stream and bundle the events
	// leading up to any final-state violation.
	if aud != nil {
		aud.Audit(sys)
	}
	if err := pr.Close(); err != nil {
		return err
	}
	if rec != nil && rec.Err() != nil {
		return fmt.Errorf("flight recorder: %w", rec.Err())
	}
	if o.snapshot != "" {
		f, err := os.Create(o.snapshot)
		if err != nil {
			return err
		}
		if err := sys.AuditSnapshot().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if srv != nil {
		publish()
	}
	var attrRep *telemetry.AttributionReport
	if attrProf != nil {
		// The blame split must agree with the engine's books to the cycle;
		// a mismatch is a bug worth failing the run over.
		if err := attrProf.Reconcile(eng); err != nil {
			return err
		}
		attrRep = attrProf.Report()
	}
	if o.jsonOut {
		res := report.FromSystem(sys, sc)
		if windows != nil {
			res.AddWindows(windows.Done())
		}
		res.Attribution = attrRep
		if err := res.WriteJSON(stdout); err != nil {
			return err
		}
	} else {
		printReport(stdout, sys, sc)
		if attrRep != nil && o.attrOut != "-" {
			if err := attrRep.WriteText(stdout); err != nil {
				return err
			}
		}
	}
	if attrRep != nil && o.attrOut != "" {
		if err := writeAttrText(o.attrOut, attrRep, stdout); err != nil {
			return err
		}
	}
	if n := aud.Total(); n > 0 {
		return fmt.Errorf("audit: %d violation(s) across %d audits", n, aud.Audits())
	}
	return nil
}

// writeAttrText writes the diffable attribution text report to path ("-"
// selects stdout).
func writeAttrText(path string, rep *telemetry.AttributionReport, stdout io.Writer) error {
	if path == "-" {
		return rep.WriteText(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printBundle summarizes a flight-recorder bundle (-verify-bundle): it
// fails on unparseable files, so CI can assert a dump is well-formed.
func printBundle(w io.Writer, path string) error {
	b, err := telemetry.ReadBundle(path)
	if err != nil {
		return err
	}
	snap := "no"
	if b.Snapshot != nil {
		snap = fmt.Sprintf("yes (%d CPUs)", len(b.Snapshot.CPUs))
	}
	fmt.Fprintf(w, "bundle: trigger=%s ref=%d events=%d violations=%d snapshot=%s\n",
		b.Trigger, b.Ref, len(b.Events), len(b.Violations), snap)
	fmt.Fprintf(w, "build:  %s\n", b.Build)
	if b.Label != "" {
		fmt.Fprintf(w, "label:  %s\n", b.Label)
	}
	if b.Detail != "" {
		fmt.Fprintf(w, "detail: %s\n", b.Detail)
	}
	return nil
}

// validateTelemetryFlags rejects telemetry flag combinations that cannot
// work: span tracing, attribution and the latency tripwire all consume the
// cycle engine's timing events, so they need -timed.
func validateTelemetryFlags(o options) error {
	if !o.timed {
		switch {
		case o.traceSpans != "" || o.spanChrome != "":
			return fmt.Errorf("-trace-spans needs -timed: span boundaries come from the cycle engine")
		case o.attr:
			return fmt.Errorf("-attr needs -timed: attribution splits the measured cycles")
		case o.flightrecLat > 0:
			return fmt.Errorf("-flightrec-latency needs -timed")
		}
	}
	if o.attrOut != "" && !o.attr {
		return fmt.Errorf("-attr-out requires -attr")
	}
	if o.attrOut == "-" && o.jsonOut {
		return fmt.Errorf("-attr-out - would interleave text with -json output; use a file path")
	}
	return nil
}

// validateCheckpointFlags rejects flag combinations the checkpoint layer
// cannot honor. Both -checkpoint and -restore need a trace that is
// regenerable from its seed (so only -preset runs qualify), and neither can
// serialize a probe's event cursors, a periodic auditor's schedule, or the
// monitoring server's live state. A -checkpoint run stops at its cut and
// prints one line, so it takes no flag that shapes a report.
func validateCheckpointFlags(o options) error {
	if o.checkpointAt > 0 && o.checkpointFile == "" {
		return fmt.Errorf("-checkpoint-at needs -checkpoint FILE")
	}
	if o.checkpointFile == "" && o.restoreFile == "" {
		return nil
	}
	if o.checkpointFile != "" && o.restoreFile != "" {
		return fmt.Errorf("-checkpoint and -restore are mutually exclusive")
	}
	if o.preset == "" {
		return fmt.Errorf("-checkpoint/-restore need -preset: the trace must be regenerable from its seed")
	}
	if o.events || o.chromeTrace != "" || o.metricsEvery > 0 {
		return fmt.Errorf("event probes cannot be checkpointed; drop -events/-chrome-trace/-metrics-every")
	}
	if o.telemetryActive() || o.injectViolation {
		return fmt.Errorf("the telemetry layer cannot be checkpointed; " +
			"drop -trace-spans/-attr/-flightrec/-inject-violation")
	}
	if o.auditEvery > 0 {
		return fmt.Errorf("periodic audits cannot be checkpointed; drop -audit-every " +
			"(a -restore run takes final-only -audit)")
	}
	if o.httpAddr != "" {
		return fmt.Errorf("-http is not supported with -checkpoint/-restore")
	}
	if o.hist {
		return fmt.Errorf("-hist is not supported with -checkpoint/-restore")
	}
	if o.checkpointFile != "" {
		if o.checkpointAt == 0 {
			return fmt.Errorf("-checkpoint needs -checkpoint-at N")
		}
		if o.jsonOut || o.audit || o.snapshot != "" {
			return fmt.Errorf("-checkpoint saves the machine and exits without a report; " +
				"drop -json/-audit/-snapshot, or pass them to the -restore run")
		}
	}
	return nil
}

// runSignature fingerprints a deterministic run: the workload generator's
// identity plus every machine parameter that shapes simulated state. A
// checkpoint taken under one signature refuses to restore under another.
func runSignature(sc system.Config, wl *tracegen.Config, o options) string {
	s := sc
	s.Probe, s.Cycles, s.Audit = nil, nil, nil
	return fmt.Sprintf("%s|machine=%+v|timed=%v|cycles=%+v",
		wl.Signature(), s, o.timed, o.cycleParams())
}

func printReport(w io.Writer, sys *system.System, sc system.Config) {
	agg := sys.Aggregate()
	fmt.Fprintf(w, "build:        vrsim %v\n", telemetry.Build())
	fmt.Fprintf(w, "organization: %v, %d CPUs, L1 %v%s, L2 %v\n",
		sc.Organization, sc.CPUs, sc.L1, splitLabel(sc.Split), sc.L2)
	fmt.Fprintf(w, "references:   %d\n", sys.Refs())
	fmt.Fprintf(w, "h1 = %.3f (read %.3f, write %.3f, instr %.3f)\n",
		agg.H1, agg.L1.DataRead, agg.L1.DataWrite, agg.L1.Instr)
	fmt.Fprintf(w, "h2 = %.3f\n", agg.H2)
	bs := sys.Bus().Stats()
	fmt.Fprintf(w, "bus: %d read-miss, %d rmw, %d invalidation (%d cache-supplied)\n",
		bs.Count(bus.Read), bs.Count(bus.ReadMod), bs.Count(bus.Invalidate), bs.Supplies)
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		st := sys.Stats(cpu)
		fmt.Fprintf(w, "cpu %d: ctxsw %d, writebacks %d (%d swapped), synonyms %d, "+
			"incl-invals %d, tlb-miss %d, coherence msgs to L1: %d",
			cpu, st.CtxSwitches, st.WriteBacks, st.SwappedWriteBacks,
			st.SynonymTotal()-st.Synonyms[0], st.InclusionInvals, st.TLB.Misses,
			st.Coherence.Total())
		if s := st.Coherence.String(); s != "" {
			fmt.Fprintf(w, " (%s)", s)
		}
		if st.VictimInserts > 0 || st.VictimHits > 0 {
			fmt.Fprintf(w, ", victim hits %d / inserts %d", st.VictimHits, st.VictimInserts)
		}
		if st.RLTEvictions > 0 {
			fmt.Fprintf(w, ", rlt evictions %d", st.RLTEvictions)
		}
		fmt.Fprintln(w)
	}
	if p := sys.Probe(); p != nil {
		fmt.Fprintf(w, "probe: %d events\n", p.Counts().Total())
	}
	if eng := sys.Cycles(); eng != nil {
		agg := sys.Aggregate()
		analytic := timemodel.AccessTime(timemodel.Params{
			T1: float64(eng.Params().T1), T2: float64(eng.Params().T2),
			TM: float64(eng.Params().TM), H1: agg.H1, H2: agg.H2,
		})
		fmt.Fprintf(w, "timing: measured Tacc %.4f cycles/ref (analytic %.4f), bus busy %d cycles over %d txns\n",
			eng.Tacc(), analytic, eng.BusBusy(), eng.BusTxns())
		for cpu := 0; cpu < sys.CPUs(); cpu++ {
			at := eng.Agent(cpu)
			fmt.Fprintf(w, "cpu %d: %d cycles / %d refs = %.4f (access %d, tlb %d, bus-wait %d, stall %d, ctx %d)\n",
				cpu, at.Clock, at.Refs, at.Tacc(),
				at.Access, at.TLB, at.BusWait, at.Stall, at.Ctx)
		}
		if eng.Latencies() != nil {
			printHistTable(w, eng.Latencies())
		}
	}
	printAuditSummary(w, sys)
}

// printHistTable renders the machine-wide latency distributions (-hist).
func printHistTable(w io.Writer, lat *monitor.Latencies) {
	sums := report.SummarizeLatencies(lat)
	if len(sums) == 0 {
		return
	}
	fmt.Fprintln(w, "latency distributions (cycles):")
	fmt.Fprintf(w, "%-10s %-10s %-8s %-8s %-8s %-8s %s\n",
		"kind", "count", "mean", "p50", "p95", "p99", "max")
	for _, s := range sums {
		fmt.Fprintf(w, "%-10s %-10d %-8.2f %-8.1f %-8.1f %-8.1f %d\n",
			s.Kind, s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
	}
}

// maxPrintedViolations bounds the text report's finding list; the JSON
// report carries the auditor's full retained set.
const maxPrintedViolations = 10

func printAuditSummary(w io.Writer, sys *system.System) {
	aud := sys.Auditor()
	if aud == nil {
		return
	}
	fmt.Fprintf(w, "audit: %d audits, %d violations\n", aud.Audits(), aud.Total())
	for i, v := range aud.Violations() {
		if i == maxPrintedViolations {
			fmt.Fprintf(w, "  ... and %d more\n", len(aud.Violations())-maxPrintedViolations)
			break
		}
		fmt.Fprintf(w, "  %s\n", v)
	}
}

func splitLabel(split bool) string {
	if split {
		return " (split I/D)"
	}
	return ""
}
