package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/report"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"16K", 16 << 10}, {"256k", 256 << 10}, {"2M", 2 << 20},
		{"512", 512}, {" 4K ", 4 << 10},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "K", "16Q", "-4K", "4.5K"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q): want error", bad)
		}
	}
}

func TestParseOrg(t *testing.T) {
	cases := map[string]struct {
		org system.Organization
		wt  bool
	}{
		"vr": {system.VR, false}, "VR": {system.VR, false},
		"rr": {system.RRInclusion, false}, "rrincl": {system.RRInclusion, false},
		"rrnoincl": {system.RRNoInclusion, false}, "noincl": {system.RRNoInclusion, false},
		"rlt":   {system.VRRLT, false},
		"vr-wt": {system.VR, true}, "rr-wt": {system.RRInclusion, true},
	}
	for in, want := range cases {
		org, wt, err := system.ParseOrganization(in)
		if err != nil || org != want.org || wt != want.wt {
			t.Errorf("ParseOrganization(%q) = %v, %v, %v; want %v, %v", in, org, wt, err, want.org, want.wt)
		}
		o := smallRun()
		o.org = in
		if sc, err := machineConfig(o); err != nil || sc.Organization != want.org || sc.L1WriteThrough != want.wt {
			t.Errorf("-org %s: machine %v (write-through %v), %v", in, sc.Organization, sc.L1WriteThrough, err)
		}
	}
	if _, _, err := system.ParseOrganization("bogus"); err == nil {
		t.Error("ParseOrganization(bogus): want error")
	}
}

// smallRun returns options for a tiny preset run; tests override fields.
func smallRun() options {
	return options{
		preset: "pops", org: "vr", l1: "4K", l2: "64K",
		b1: 16, b2: 32, a1: 1, a2: 1, scale: 0.001,
	}
}

func TestRunPreset(t *testing.T) {
	if err := run(smallRun(), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunPresetJSON(t *testing.T) {
	o := smallRun()
	o.preset, o.org, o.jsonOut = "thor", "rr", true
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	o := smallRun()
	o.chromeTrace = path
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
}

func TestRunEventsAndMetrics(t *testing.T) {
	o := smallRun()
	o.events = true
	o.eventsFilter = "synonym,coherence"
	o.metricsEvery = 100
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunMetricsJSON(t *testing.T) {
	o := smallRun()
	o.jsonOut = true
	o.metricsEvery = 50
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trc")
	cfg := tracegen.AbaqusLike().Scaled(0.001)
	gen, err := tracegen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewBinaryWriter(f)
	for {
		ref, err := gen.Next()
		if err != nil {
			break
		}
		if err := w.Write(ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	o := smallRun()
	o.preset, o.traceFile, o.tracePreset, o.scale = "", path, "abaqus", 1
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunTimed(t *testing.T) {
	o := smallRun()
	o.timed = true
	o.t1, o.t2, o.tm = 1, 4, 20
	o.busMemOcc, o.busWBOcc, o.contention = 12, 4, true
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	o.jsonOut = true
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// rejection is an invocation run must refuse. ioFailure marks the ones
// refused only because a file or socket cannot be opened.
type rejection struct {
	name      string
	o         options
	ioFailure bool
}

// modRun returns smallRun with f applied.
func modRun(f func(*options)) options {
	o := smallRun()
	f(&o)
	return o
}

func runRejections() []rejection {
	return []rejection{
		{"both inputs", modRun(func(o *options) { o.traceFile = "x.trc" }), false},
		{"no inputs", modRun(func(o *options) { o.preset = "" }), false},
		{"bad org", modRun(func(o *options) { o.org = "zz" }), false},
		{"bad size", modRun(func(o *options) { o.l1 = "4Q" }), false},
		{"bad preset", modRun(func(o *options) { o.preset = "nope" }), false},
		{"missing trace file", modRun(func(o *options) { o.preset = ""; o.traceFile = "/nonexistent/x.trc" }), false},
		{"bad geometry", modRun(func(o *options) { o.b1 = 100 }), false},
		{"bad events filter", modRun(func(o *options) { o.events = true; o.eventsFilter = "bogus" }), false},
		{"filter without events", modRun(func(o *options) { o.eventsFilter = "synonym" }), false},
		{"unwritable chrome trace", modRun(func(o *options) { o.chromeTrace = "/nonexistent/dir/t.json" }), true},
		{"latency flag without -timed", modRun(func(o *options) { o.tm = 40 }), false},
		{"bad latencies", modRun(func(o *options) { o.timed = true; o.t1 = 0 }), false},
		{"hist without -timed", modRun(func(o *options) { o.hist = true }), false},
		{"unwritable snapshot", modRun(func(o *options) { o.snapshot = "/nonexistent/dir/s.json" }), true},
		{"unusable http address", modRun(func(o *options) { o.httpAddr = "256.0.0.1:bad" }), true},
		// One row per rule of validateCheckpointFlags, bar its telemetry
		// rule (telemetryRejections).
		{"checkpoint-at without -checkpoint", modRun(func(o *options) { o.checkpointAt = 500 }), false},
		{"checkpoint-at with -restore", modRun(func(o *options) { o.restoreFile, o.checkpointAt = "x.bin", 500 }), false},
		{"checkpoint with -restore", modRun(func(o *options) {
			o.checkpointFile, o.checkpointAt, o.restoreFile = "x.bin", 500, "y.bin"
		}), false},
		{"restore without -preset", modRun(func(o *options) {
			o.preset, o.traceFile, o.restoreFile = "", "x.trc", "x.bin"
		}), false},
		{"event probe with -restore", modRun(func(o *options) { o.metricsEvery, o.restoreFile = 1000, "x.bin" }), false},
		{"audit-every with -restore", modRun(func(o *options) { o.auditEvery, o.restoreFile = 1000, "x.bin" }), false},
		{"http with -restore", modRun(func(o *options) { o.httpAddr, o.restoreFile = "127.0.0.1:0", "x.bin" }), false},
		{"hist with -restore", modRun(func(o *options) {
			o.timed, o.t1, o.t2, o.tm = true, 1, 4, 20
			o.hist, o.restoreFile = true, "x.bin"
		}), false},
		{"checkpoint without -checkpoint-at", modRun(func(o *options) { o.checkpointFile = "x.bin" }), false},
		{"json with -checkpoint", modRun(func(o *options) {
			o.checkpointFile, o.checkpointAt, o.jsonOut = "x.bin", 500, true
		}), false},
		{"audit with -checkpoint", modRun(func(o *options) {
			o.checkpointFile, o.checkpointAt, o.audit = "x.bin", 500, true
		}), false},
		{"snapshot with -checkpoint", modRun(func(o *options) {
			o.checkpointFile, o.checkpointAt, o.snapshot = "x.bin", 500, "s.json"
		}), false},
	}
}

func TestRunErrors(t *testing.T) {
	for _, c := range runRejections() {
		if err := run(c.o, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: want error", c.name)
		}
		// A checkpoint row must be refused by its flags, before the x.bin
		// it names is read or written.
		ck := c.o.checkpointFile != "" || c.o.restoreFile != "" || c.o.checkpointAt > 0
		if ck && validateCheckpointFlags(c.o) == nil {
			t.Errorf("%s: validateCheckpointFlags accepts it", c.name)
		}
	}
}

// TestRunCheckpointRestore saves a run at record 2000 and restores it with
// the report flags a -checkpoint run refuses: the restored run's JSON
// report, audit and snapshot must be the uninterrupted run's.
func TestRunCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	o := smallRun()
	o.jsonOut, o.audit = true, true
	o.snapshot = filepath.Join(dir, "want.json")
	var want bytes.Buffer
	if err := run(o, &want, io.Discard); err != nil {
		t.Fatal(err)
	}

	save := smallRun()
	save.checkpointFile, save.checkpointAt = filepath.Join(dir, "ck.bin"), 2000
	var line bytes.Buffer
	if err := run(save, &line, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line.String(), "checkpoint: 2000 records saved") {
		t.Errorf("-checkpoint printed %q", line.String())
	}

	o.restoreFile, o.snapshot = save.checkpointFile, filepath.Join(dir, "got.json")
	var got bytes.Buffer
	if err := run(o, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(maskBuild(want.Bytes()), maskBuild(got.Bytes())) {
		t.Errorf("restored report diverges:\nuninterrupted:\n%s\nrestored:\n%s", want.String(), got.String())
	}
	wantSnap, err := os.ReadFile(filepath.Join(dir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := os.ReadFile(o.snapshot)
	if err != nil || !bytes.Equal(wantSnap, gotSnap) {
		t.Errorf("restored snapshot diverges (%v)", err)
	}
}

// TestRunRejectionKeepsChromeTrace reruns every invocation that is refused
// for its options or inputs with -chrome-trace naming an existing file: the
// refused run must leave that file's bytes as they were.
func TestRunRejectionKeepsChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	want := []byte("an earlier trace\n")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range append(runRejections(), telemetryRejections()...) {
		if c.ioFailure {
			continue
		}
		o := c.o
		o.chromeTrace = path
		if err := run(o, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: want error", c.name)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: -chrome-trace file now holds %q (%v), want it untouched", c.name, got, err)
		}
	}
}

func TestRunAuditClean(t *testing.T) {
	for _, org := range []string{"vr", "rr", "rrnoincl"} {
		o := smallRun()
		o.org, o.audit, o.auditEvery = org, true, 200
		var out bytes.Buffer
		if err := run(o, &out, io.Discard); err != nil {
			t.Fatalf("%s: clean run reported violations: %v", org, err)
		}
		if !strings.Contains(out.String(), "audit:") {
			t.Fatalf("%s: text report missing audit summary:\n%s", org, out.String())
		}
		if !strings.Contains(out.String(), " 0 violations") {
			t.Fatalf("%s: audit summary not clean:\n%s", org, out.String())
		}
	}
}

func TestRunSnapshotFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	o := smallRun()
	o.snapshot = path
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := audit.ParseJSON(f)
	if err != nil {
		t.Fatalf("snapshot file not parseable: %v", err)
	}
	if snap.Organization != "V-R" && snap.Organization != "vr" {
		t.Logf("organization label: %q", snap.Organization)
	}
	if len(snap.CPUs) == 0 {
		t.Fatal("snapshot has no CPUs")
	}
	if got := snap.Check(); len(got) != 0 {
		t.Fatalf("snapshot of a clean run has violations: %v", got)
	}
}

// TestRunJSONComposes drives every JSON-affecting feature at once and
// requires stdout to be exactly one well-formed document with the
// histogram, window, and audit output nested inside it.
func TestRunJSONComposes(t *testing.T) {
	o := smallRun()
	o.jsonOut = true
	o.metricsEvery = 100
	o.timed, o.hist = true, true
	o.t1, o.t2, o.tm = 1, 4, 20
	o.busMemOcc, o.busWBOcc, o.contention = 12, 4, true
	o.audit, o.auditEvery = true, 500
	var out bytes.Buffer
	if err := run(o, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out.String())
	}
	if dec.More() {
		t.Fatalf("stdout holds more than one JSON document:\n%s", out.String())
	}
	res, err := report.ParseJSON(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Probe == nil || len(res.Probe.Windows) == 0 {
		t.Error("windows not nested in the JSON document")
	}
	if res.Monitor == nil || len(res.Monitor.Latency) == 0 {
		t.Error("latency summaries not nested in the JSON document")
	}
	if res.Monitor != nil && len(res.Monitor.Occupancy) == 0 {
		t.Error("occupancy not nested in the JSON document")
	}
	if res.Audit == nil || res.Audit.Audits == 0 {
		t.Error("audit tally not nested in the JSON document")
	}
	if res.Audit != nil && res.Audit.Violations != 0 {
		t.Errorf("clean run reported %d violations", res.Audit.Violations)
	}
	for _, s := range res.Monitor.Latency {
		if s.Kind == "access" && s.Count == 0 {
			t.Error("access histogram empty despite -hist")
		}
	}
}

func TestRunHistText(t *testing.T) {
	o := smallRun()
	o.timed, o.hist = true, true
	o.t1, o.t2, o.tm = 1, 4, 20
	var out bytes.Buffer
	if err := run(o, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "latency distributions (cycles):") {
		t.Fatalf("histogram table missing:\n%s", text)
	}
	if !strings.Contains(text, "access") {
		t.Fatalf("access row missing:\n%s", text)
	}
}

func TestRunHTTPMonitor(t *testing.T) {
	// The server lives for the duration of run(): it must bind, publish at
	// startup and on every window close, and shut down cleanly at the end
	// (monitor's own tests exercise the endpoints over a live listener).
	o := smallRun()
	o.httpAddr = "127.0.0.1:0"
	o.metricsEvery = 100
	o.audit = true
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompare(t *testing.T) {
	if err := runCompare(smallRun(), io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompareErrors(t *testing.T) {
	mod := func(f func(*options)) options {
		o := smallRun()
		f(&o)
		return o
	}
	if err := runCompare(mod(func(o *options) { o.preset = "" }), io.Discard); err == nil {
		t.Error("compare without preset accepted")
	}
	if err := runCompare(mod(func(o *options) { o.preset = "nope" }), io.Discard); err == nil {
		t.Error("unknown preset accepted")
	}
	if err := runCompare(mod(func(o *options) { o.l1 = "4Q" }), io.Discard); err == nil {
		t.Error("bad size accepted")
	}
}

// timedRun is smallRun with the cycle engine armed (telemetry needs it).
func timedRun() options {
	o := smallRun()
	o.timed = true
	o.t1, o.t2, o.tm = 1, 4, 20
	o.tlbPenalty = 8
	return o
}

func telemetryRejections() []rejection {
	timed := func(o *options) { o.timed, o.t1, o.t2, o.tm = true, 1, 4, 20 }
	return []rejection{
		{"trace-spans without -timed", modRun(func(o *options) { o.traceSpans = "x.json" }), false},
		{"attr without -timed", modRun(func(o *options) { o.attr = true }), false},
		{"flightrec-latency without -timed", modRun(func(o *options) { o.flightrecLat = 100 }), false},
		{"attr-out without -attr", modRun(func(o *options) { o.attrOut = "x.txt" }), false},
		{"attr-out stdout with -json", modRun(func(o *options) {
			timed(o)
			o.attr, o.attrOut, o.jsonOut = true, "-", true
		}), false},
		{"inject-violation without audit", modRun(func(o *options) { o.injectViolation = true }), false},
		{"telemetry with -checkpoint", modRun(func(o *options) {
			timed(o)
			o.attr = true
			o.checkpointFile, o.checkpointAt = "x.bin", 10
		}), false},
		{"unwritable span file", modRun(func(o *options) {
			timed(o)
			o.traceSpans = "/nonexistent/dir/spans.json"
		}), true},
	}
}

func TestRunTelemetryErrors(t *testing.T) {
	for _, c := range telemetryRejections() {
		if err := run(c.o, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

// TestRunTelemetryJSON runs the full telemetry stack on a tiny timed
// workload: span files must be valid JSON, the JSON report must carry the
// build header and the reconciled attribution, and the diffable text report
// must land in -attr-out.
func TestRunTelemetryJSON(t *testing.T) {
	dir := t.TempDir()
	o := timedRun()
	o.jsonOut = true
	o.attr = true
	o.attrOut = filepath.Join(dir, "attr.txt")
	o.traceSpans = filepath.Join(dir, "spans.otlp.json")
	o.spanChrome = filepath.Join(dir, "spans.chrome.json")
	o.spanEvery = 64
	var out bytes.Buffer
	if err := run(o, &out, io.Discard); err != nil {
		t.Fatal(err)
	}

	var res report.Results
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("JSON report: %v", err)
	}
	if res.Build == nil || res.Build.GoVersion == "" {
		t.Fatal("JSON report missing build info")
	}
	if res.Attribution == nil || res.Attribution.Refs == 0 {
		t.Fatalf("JSON report missing attribution: %+v", res.Attribution)
	}
	if res.Attribution.TotalCycles == 0 {
		t.Fatal("attribution counted no cycles")
	}

	attrText, err := os.ReadFile(o.attrOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(attrText), "cycle attribution:") {
		t.Fatalf("-attr-out content:\n%s", attrText)
	}

	for _, span := range []string{o.traceSpans, o.spanChrome} {
		data, err := os.ReadFile(span)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s is not valid JSON: %v", span, err)
		}
	}
}

// TestRunInjectedViolation is the flight-recorder acceptance path: a run
// with a synthetic violation must fail, and the recorder must leave a
// parseable bundle with the event ring and the machine snapshot behind.
func TestRunInjectedViolation(t *testing.T) {
	dir := t.TempDir()
	o := timedRun()
	o.audit = true
	o.injectViolation = true
	o.flightrec = filepath.Join(dir, "fr")
	if err := run(o, io.Discard, io.Discard); err == nil {
		t.Fatal("injected violation must fail the run")
	}
	bundles, err := filepath.Glob(filepath.Join(o.flightrec, "flightrec-*-audit-violation.json"))
	if err != nil || len(bundles) != 1 {
		t.Fatalf("bundles: %v, %v", bundles, err)
	}
	b, err := telemetry.ReadBundle(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Violations) != 1 || b.Violations[0].Location != "injected" {
		t.Fatalf("violations: %+v", b.Violations)
	}
	if b.Snapshot == nil || len(b.Snapshot.CPUs) == 0 {
		t.Fatal("bundle missing machine snapshot")
	}
	if len(b.Events) == 0 {
		t.Fatal("bundle missing event ring")
	}
	var buf bytes.Buffer
	if err := printBundle(&buf, bundles[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trigger=audit-violation") {
		t.Fatalf("-verify-bundle output:\n%s", buf.String())
	}
	if err := printBundle(io.Discard, filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("-verify-bundle on a missing file must error")
	}
	nullCPU := filepath.Join(dir, "null-cpu.json")
	if err := os.WriteFile(nullCPU, []byte(`{"trigger":"x","ref":0,"events":[],`+
		`"snapshot":{"organization":"x","references":0,"cpus":[null]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := printBundle(io.Discard, nullCPU); err == nil {
		t.Fatal("-verify-bundle on a snapshot with a null CPU entry must error")
	}
}
