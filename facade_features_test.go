package vrsim_test

import (
	"bytes"
	"testing"

	vrsim "repro"
)

func TestPublicWriteUpdateProtocol(t *testing.T) {
	cfg := smallConfig(vrsim.VR)
	cfg.Protocol = vrsim.WriteUpdate
	sys, err := vrsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seg := sys.MMU().NewSegment(4096)
	if err := sys.MMU().MapShared(1, 0x10000, seg); err != nil {
		t.Fatal(err)
	}
	if err := sys.MMU().MapShared(2, 0x20000, seg); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Apply(vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x10000}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Apply(vrsim.Ref{CPU: 1, Kind: vrsim.Read, PID: 2, Addr: 0x20000}); err != nil {
		t.Fatal(err)
	}
	w, err := sys.Apply(vrsim.Ref{CPU: 0, Kind: vrsim.Write, PID: 1, Addr: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Apply(vrsim.Ref{CPU: 1, Kind: vrsim.Read, PID: 2, Addr: 0x20000})
	if err != nil {
		t.Fatal(err)
	}
	if !got.L1Hit || got.Token != w.Token {
		t.Errorf("update protocol through public API: %+v want token %d", got, w.Token)
	}
}

func TestPublicWriteThrough(t *testing.T) {
	cfg := smallConfig(vrsim.VR)
	cfg.L1WriteThrough = true
	sys, err := vrsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl := vrsim.PopsWorkload().Scaled(0.001)
	wl.CPUs = cfg.CPUs
	if err := vrsim.RunWorkload(sys, wl); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		if sys.Stats(cpu).WriteBacks != 0 {
			t.Error("write-through produced write-backs")
		}
	}
}

func TestPublicPIDTagged(t *testing.T) {
	cfg := smallConfig(vrsim.VR)
	cfg.PIDTagged = true
	sys, err := vrsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl := vrsim.AbaqusWorkload().Scaled(0.001)
	if err := vrsim.RunWorkload(sys, wl); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		st := sys.Stats(cpu)
		if st.CtxSwitches == 0 {
			t.Error("no switches ran")
		}
		if st.SwappedWriteBacks != 0 {
			t.Error("PID-tagged cache swapped lines")
		}
	}
}

func TestPublicDMA(t *testing.T) {
	sys, err := vrsim.New(smallConfig(vrsim.VR))
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.Apply(vrsim.Ref{CPU: 0, Kind: vrsim.Write, PID: 1, Addr: 0x400})
	if err != nil {
		t.Fatal(err)
	}
	var dev *vrsim.DMA = sys.NewDMA()
	got, err := dev.ReadBlock(w.PA)
	if err != nil {
		t.Fatal(err)
	}
	if got != w.Token {
		t.Errorf("DMA read %d, want %d", got, w.Token)
	}
}

func TestPublicInvalidConfigRejected(t *testing.T) {
	cfg := smallConfig(vrsim.RRNoInclusion)
	cfg.Protocol = vrsim.WriteUpdate
	if _, err := vrsim.New(cfg); err == nil {
		t.Error("no-inclusion + write-update accepted")
	}
	cfg = smallConfig(vrsim.VR)
	cfg.L1.Block = 24
	if _, err := vrsim.New(cfg); err == nil {
		t.Error("bad block size accepted")
	}
}

// TestPublicTelemetry drives the telemetry re-exports end-to-end: a timed
// workload with a span tracer, a flight recorder and an attribution
// profiler on the probe, reconciled against the cycle engine.
func TestPublicTelemetry(t *testing.T) {
	if b := vrsim.Build(); b.GoVersion == "" {
		t.Fatalf("incomplete build info: %+v", b)
	}
	pr := vrsim.NewProbe()
	eng, err := vrsim.NewCycleEngine(vrsim.ContentionCycleParams(), pr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(vrsim.VR)
	cfg.Probe, cfg.Cycles = pr, eng
	sys, err := vrsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spans bytes.Buffer
	tracer := vrsim.NewSpanTracer(64, vrsim.NewChromeSpanWriter(&spans))
	attr := vrsim.NewAttributionProfiler(vrsim.AttributionConfig{})
	rec := vrsim.NewFlightRecorder(vrsim.FlightRecorderConfig{EventsPerCPU: 128})
	pr.AddSink(tracer)
	pr.AddSink(attr)
	pr.AddSink(rec)

	wl := vrsim.PopsWorkload().Scaled(0.002)
	wl.CPUs = 2
	if err := vrsim.RunWorkload(sys, wl); err != nil {
		t.Fatal(err)
	}
	if err := pr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := attr.Reconcile(eng); err != nil {
		t.Fatal(err)
	}
	if tracer.Spans() == 0 {
		t.Error("tracer sampled no references")
	}
	data, err := rec.Dump("facade test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetryParse(data); err != nil {
		t.Fatal(err)
	}
}

// telemetryParse round-trips a bundle through the public parser.
func telemetryParse(data []byte) (*vrsim.FlightBundle, error) {
	return vrsim.ParseFlightBundle(bytes.NewReader(data))
}
