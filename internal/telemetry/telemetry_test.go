package telemetry

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cycles"
	"repro/internal/probe"
	"repro/internal/stats"
)

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.Module == "" || b.Version == "" || b.GoVersion == "" {
		t.Fatalf("incomplete build info: %+v", b)
	}
	if s := b.String(); !strings.Contains(s, b.GoVersion) {
		t.Fatalf("String() %q misses the go version", s)
	}
}

func TestTopKSpaceSaving(t *testing.T) {
	tk := NewTopK(2)
	tk.Add(1, 10)
	tk.Add(2, 5)
	tk.Add(3, 1) // evicts key 2 (the minimum), inherits weight 5
	top := tk.Top()
	if len(top) != 2 {
		t.Fatalf("got %d hitters, want 2", len(top))
	}
	if top[0].Key != 1 || top[0].Weight != 10 || top[0].OverBy != 0 {
		t.Fatalf("heaviest: %+v", top[0])
	}
	if top[1].Key != 3 || top[1].Weight != 6 || top[1].OverBy != 5 {
		t.Fatalf("takeover slot: %+v", top[1])
	}
	// Re-adding a tracked key must not evict.
	tk.Add(1, 1)
	if tk.Len() != 2 || tk.Top()[0].Weight != 11 {
		t.Fatalf("tracked-key update broke the sketch: %+v", tk.Top())
	}
	// Zero weights are ignored.
	tk.Add(99, 0)
	if tk.Len() != 2 {
		t.Fatal("zero-weight add must be a no-op")
	}
}

// collector captures exported span trees for inspection.
type collector struct{ roots []*Span }

func (c *collector) ExportSpan(s *Span) error { c.roots = append(c.roots, s); return nil }

// feedReference pushes one synthetic L2-hit reference through a sink: an L1
// miss, a bus wait of 3 cycles, the L2 access marker, and a 4-cycle service
// charge.
func feedReference(sink probe.Sink, ref uint64, cpu int) {
	evs := []probe.Event{
		{Ref: ref, CPU: cpu, Kind: probe.EvL1Miss, Access: stats.KindRead, VA: 0x1000, PA: 0x2000},
		{Ref: ref, CPU: cpu, Kind: probe.EvTimeBusWait, Aux: 3},
		{Ref: ref, CPU: cpu, Kind: probe.EvL2Hit, Access: stats.KindRead, VA: 0x1000, PA: 0x2000},
		{Ref: ref, CPU: cpu, Kind: probe.EvTimeAccess, Access: stats.KindRead, Aux: 4},
	}
	for _, ev := range evs {
		sink.Event(ev)
	}
}

func TestTracerBuildsCausalTree(t *testing.T) {
	col := &collector{}
	tr := NewTracer(1, col)
	feedReference(tr, 1, 0)
	feedReference(tr, 2, 0) // closes ref 1
	tr.Flush()              // closes ref 2

	if len(col.roots) != 2 || tr.Spans() != 2 {
		t.Fatalf("got %d trees (Spans()=%d), want 2", len(col.roots), tr.Spans())
	}
	root := col.roots[0]
	if root.Ref != 1 || root.Start != 0 || root.End != 7 {
		t.Fatalf("root boundaries: %+v", root)
	}
	var names []string
	root.Walk(func(parent, sp *Span) {
		if parent != nil {
			names = append(names, sp.Name)
		}
	})
	want := []string{"l1-miss", "bus-wait", "l2-service", "l2-hit"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("tree walk %v, want %v", names, want)
	}
	// The bus wait is the interval [0,3), the service charge [3,7), and
	// the L2 marker nests under the service span.
	for _, sp := range root.Children {
		switch sp.Name {
		case "bus-wait":
			if sp.Start != 0 || sp.End != 3 {
				t.Fatalf("bus-wait interval: %+v", sp)
			}
		case "l2-service":
			if sp.Start != 3 || sp.End != 7 || len(sp.Children) != 1 {
				t.Fatalf("service interval: %+v", sp)
			}
		}
	}
	// The second reference starts where the first left the clock.
	if col.roots[1].Start != 7 || col.roots[1].End != 14 {
		t.Fatalf("second tree boundaries: %+v", col.roots[1])
	}
}

func TestTracerSampling(t *testing.T) {
	col := &collector{}
	tr := NewTracer(4, col)
	for ref := uint64(1); ref <= 9; ref++ {
		feedReference(tr, ref, 0)
	}
	tr.Flush()
	// References 1, 5, 9 are the sampled ones.
	if len(col.roots) != 3 {
		t.Fatalf("sampled %d trees, want 3", len(col.roots))
	}
	for i, want := range []uint64{1, 5, 9} {
		if col.roots[i].Ref != want {
			t.Fatalf("tree %d is ref %d, want %d", i, col.roots[i].Ref, want)
		}
	}
	// Unsampled clocks still advance: ref 5's tree starts at 4*7.
	if col.roots[1].Start != 28 {
		t.Fatalf("ref 5 starts at %d, want 28", col.roots[1].Start)
	}
}

func TestSpanExportersProduceValidJSON(t *testing.T) {
	var otlpBuf, chromeBuf bytes.Buffer
	ow := NewOTLPWriter(&otlpBuf)
	cw := NewChromeSpanWriter(&chromeBuf)
	tr := NewTracer(1, ow, cw)
	feedReference(tr, 1, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var otlp struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(otlpBuf.Bytes(), &otlp); err != nil {
		t.Fatalf("OTLP output is not JSON: %v\n%s", err, otlpBuf.String())
	}
	spans := otlp.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) != 5 || ow.Spans() != 5 { // root + 4 nodes
		t.Fatalf("OTLP spans: %d (writer says %d), want 5", len(spans), ow.Spans())
	}
	if spans[0].ParentSpanID != "" || spans[1].ParentSpanID != spans[0].SpanID {
		t.Fatalf("parent links broken: %+v", spans[:2])
	}

	var chrome struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			Dur   uint64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chromeBuf.Bytes(), &chrome); err != nil {
		t.Fatalf("Chrome output is not JSON: %v\n%s", err, chromeBuf.String())
	}
	if len(chrome.TraceEvents) != 5 || cw.Events() != 5 {
		t.Fatalf("chrome events: %d, want 5", len(chrome.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range chrome.TraceEvents {
		phases[ev.Phase]++
	}
	if phases["X"] != 3 || phases["i"] != 2 { // root, bus-wait, service + 2 markers
		t.Fatalf("phase mix %v, want 3 X and 2 i", phases)
	}
}

func TestRecorderRingAndDump(t *testing.T) {
	rec := NewRecorder(RecorderConfig{EventsPerCPU: 4, Label: "test"})
	for seq := uint64(1); seq <= 10; seq++ {
		rec.Event(probe.Event{Seq: seq, Ref: seq, CPU: int(seq % 2), Kind: probe.EvL1Hit})
	}
	data, err := rec.Dump("unit test")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseBundle(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Two CPUs, ring of 4 each: events 3..10 survive, in Seq order.
	if len(b.Events) != 8 || b.Events[0].Seq != 3 || b.Events[7].Seq != 10 {
		t.Fatalf("ring contents: %+v", b.Events)
	}
	if b.Trigger != "on-demand" || b.Detail != "unit test" || b.Label != "test" || b.Ref != 10 {
		t.Fatalf("bundle header: %+v", b)
	}
	if rec.Dumps() != 1 {
		t.Fatalf("Dumps() = %d, want 1", rec.Dumps())
	}
}

func TestRecorderAuditTriggerWritesBundle(t *testing.T) {
	dir := t.TempDir()
	snap := &audit.Snapshot{Organization: "VR"}
	rec := NewRecorder(RecorderConfig{Dir: dir, EventsPerCPU: 8})
	rec.Event(probe.Event{Seq: 1, Ref: 1, CPU: 0, Kind: probe.EvL1Miss})

	rec.OnAudit(snap, nil) // clean audit: snapshot retained, no dump
	if rec.Dumps() != 0 {
		t.Fatal("clean audit must not dump")
	}
	v := audit.Violation{Invariant: audit.InvInclusion, CPU: -1, Location: "x", Detail: "d"}
	rec.OnAudit(snap, []audit.Violation{v})
	if rec.Dumps() != 1 {
		t.Fatal("violating audit must dump")
	}
	files, err := filepath.Glob(filepath.Join(dir, "flightrec-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("bundle files: %v, %v", files, err)
	}
	b, err := ReadBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger != "audit-violation" || b.Snapshot == nil || len(b.Violations) != 1 ||
		len(b.Events) != 1 || b.Events[0].Kind != "l1-miss" {
		t.Fatalf("bundle: %+v", b)
	}
}

func TestRecorderLatencyTrigger(t *testing.T) {
	rec := NewRecorder(RecorderConfig{EventsPerCPU: 8, LatencyThreshold: 10})
	rec.Event(probe.Event{Seq: 1, Ref: 1, CPU: 0, Kind: probe.EvTimeAccess, Aux: 9})
	if rec.Dumps() != 0 {
		t.Fatal("below-threshold access must not dump")
	}
	rec.Event(probe.Event{Seq: 2, Ref: 2, CPU: 0, Kind: probe.EvTimeAccess, Aux: 10})
	if rec.Dumps() != 1 {
		t.Fatal("threshold access must dump")
	}
}

func TestRecorderBundleCap(t *testing.T) {
	rec := NewRecorder(RecorderConfig{EventsPerCPU: 2, MaxBundles: 2})
	rec.Event(probe.Event{Seq: 1, Ref: 1, Kind: probe.EvL1Hit})
	if _, err := rec.Dump("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Dump("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Dump("c"); err == nil {
		t.Fatal("dump past the cap must error")
	}
	if rec.Dumps() != 2 {
		t.Fatalf("Dumps() = %d, want 2", rec.Dumps())
	}
}

func TestRecorderRequestDump(t *testing.T) {
	rec := NewRecorder(RecorderConfig{EventsPerCPU: 8})
	rec.Event(probe.Event{Seq: 1, Ref: 1, Kind: probe.EvL1Hit})

	done := make(chan error, 1)
	go func() {
		data, err := rec.RequestDump("http", 5*time.Second)
		if err == nil {
			if _, perr := ParseBundle(bytes.NewReader(data)); perr != nil {
				err = perr
			}
		}
		done <- err
	}()
	// The simulation goroutine polls the mailbox on each event.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		case <-deadline:
			t.Fatal("request never answered")
		default:
			rec.Event(probe.Event{Seq: 2, Ref: 2, Kind: probe.EvL1Hit})
		}
	}
}

func TestRecorderRequestDumpTimesOutWhenIdle(t *testing.T) {
	rec := NewRecorder(RecorderConfig{EventsPerCPU: 8})
	if _, err := rec.RequestDump("http", 10*time.Millisecond); err != ErrRecorderIdle {
		t.Fatalf("err = %v, want ErrRecorderIdle", err)
	}
	// Close answers a still-pending request from the final ring state
	// instead of leaving the HTTP caller hanging on a finished run.
	done := make(chan error, 1)
	go func() {
		_, err := rec.RequestDump("late", 5*time.Second)
		done <- err
	}()
	for rec.req.Load() == nil { // wait until the mailbox holds the request
		time.Sleep(time.Millisecond)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("close-time answer: %v", err)
	}
}

func TestParseBundleRejectsGarbage(t *testing.T) {
	if _, err := ParseBundle(strings.NewReader("{}")); err == nil {
		t.Fatal("bundle without trigger must be rejected")
	}
	if _, err := ParseBundle(strings.NewReader(`{"trigger":"x","bogus":1}`)); err == nil {
		t.Fatal("unknown fields must be rejected")
	}
	if _, err := ReadBundle(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
	// A null CPU entry would crash the checker on the bundle's snapshot.
	nullCPU := `{"trigger":"x","ref":0,"events":[],` +
		`"snapshot":{"organization":"x","references":0,"cpus":[null]}}`
	if _, err := ParseBundle(strings.NewReader(nullCPU)); err == nil {
		t.Fatal("a snapshot with a null CPU entry must be rejected")
	}
}

func TestAttributionBlameAndHitters(t *testing.T) {
	a := NewAttribution(AttrConfig{TopK: 4, PageSize: 4096, L2Sets: 8, L2Block: 32})
	feedReference(a, 1, 0) // L2 hit: 4 service cycles at level 2, 3 bus-wait
	a.Event(probe.Event{Ref: 2, CPU: 0, Kind: probe.EvL1Miss, VA: 0x1000, PA: 0x2000})
	a.Event(probe.Event{Ref: 2, CPU: 0, Kind: probe.EvL2Miss, VA: 0x1000, PA: 0x2000})
	a.Event(probe.Event{Ref: 2, CPU: 0, Kind: probe.EvSynMove, VA: 0x1000, PA: 0x2000})
	a.Event(probe.Event{Ref: 2, CPU: 0, Kind: probe.EvTimeTLBMiss, Aux: 8})
	a.Event(probe.Event{Ref: 2, CPU: 0, Kind: probe.EvTimeAccess, Access: stats.KindRead, Aux: 21})
	a.Event(probe.Event{Ref: 3, CPU: 1, Kind: probe.EvL1Hit, VA: 0x40, PA: 0x40})
	a.Event(probe.Event{Ref: 3, CPU: 1, Kind: probe.EvTimeAccess, Access: stats.KindRead, Aux: 1})

	r := a.Report()
	if r.Refs != 3 || r.TotalCycles != 4+3+8+21+1 {
		t.Fatalf("totals: %+v", r)
	}
	wantMech := map[string]uint64{
		"l1-service": 1, "l2-service": 4, "memory-service": 21,
		"tlb-miss": 8, "bus-wait": 3, "wb-stall": 0, "ctx-switch": 0,
	}
	for _, m := range r.Mechanisms {
		if m.Cycles != wantMech[m.Mechanism] {
			t.Fatalf("%s = %d, want %d", m.Mechanism, m.Cycles, wantMech[m.Mechanism])
		}
	}
	if len(r.CPUs) != 2 || r.CPUs[0].L1Misses != 2 || r.CPUs[0].L2Misses != 1 || r.CPUs[0].Synonyms != 1 {
		t.Fatalf("per-cpu: %+v", r.CPUs)
	}
	if len(r.TopPagesByMiss) != 1 || r.TopPagesByMiss[0].Key != 1 || r.TopPagesByMiss[0].Weight != 2 {
		t.Fatalf("page hitters: %+v", r.TopPagesByMiss)
	}
	// PA 0x2000, block 32, 8 sets: block 256 % 8 = set 0.
	if len(r.TopSetsByL2Miss) != 1 || r.TopSetsByL2Miss[0].Key != 0 {
		t.Fatalf("set hitters: %+v", r.TopSetsByL2Miss)
	}
	if len(r.TopCPUsByBusWait) != 1 || r.TopCPUsByBusWait[0].Key != 0 || r.TopCPUsByBusWait[0].Weight != 3 {
		t.Fatalf("cpu hitters: %+v", r.TopCPUsByBusWait)
	}

	// The monitor converters carry the same numbers.
	bm := r.BlameMetrics()
	if len(bm) != int(NumMechanisms) || bm[2].Mechanism != "memory-service" || bm[2].Cycles != 21 {
		t.Fatalf("blame metrics: %+v", bm)
	}
	if tm := r.TopMetrics(); len(tm) != 4 {
		t.Fatalf("top metrics: %+v", tm)
	}
}

func TestReconcileCatchesDrift(t *testing.T) {
	eng := cycles.MustNew(cycles.Params{T1: 1, T2: 4, TM: 20}, nil)
	eng.CPU(0).EndAccess(stats.KindRead, 1) // 1 cycle on the engine's books
	a := NewAttribution(AttrConfig{})
	if err := a.Reconcile(eng); err == nil {
		t.Fatal("attribution saw nothing; reconcile must fail")
	}
	// Mirror the charge and it reconciles.
	a.Event(probe.Event{Ref: 1, CPU: 0, Kind: probe.EvL1Hit})
	a.Event(probe.Event{Ref: 1, CPU: 0, Kind: probe.EvTimeAccess, Access: stats.KindRead, Aux: 1})
	if err := a.Reconcile(eng); err != nil {
		t.Fatal(err)
	}
}

func TestWriteTextAndDiffDeterministic(t *testing.T) {
	mk := func() *AttributionReport {
		a := NewAttribution(AttrConfig{TopK: 4, PageSize: 4096, L2Sets: 8, L2Block: 32})
		feedReference(a, 1, 0)
		return a.Report()
	}
	r1, r2 := mk(), mk()
	var b1, b2 bytes.Buffer
	if err := r1.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("text reports differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	var d bytes.Buffer
	if err := DiffText(&d, "a", r1, "b", r2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.String(), "l2-service") || !strings.Contains(d.String(), "+0") {
		t.Fatalf("diff output:\n%s", d.String())
	}
}
