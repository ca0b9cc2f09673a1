package telemetry_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cycles"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
)

// The telemetry hot path — events of unsampled references through the
// tracer, every event through the armed recorder and the attribution
// profiler — must not allocate: the probe stream carries millions of events
// per second and a single allocation per event would dominate the run.

func TestTracerHotPathAllocs(t *testing.T) {
	tr := telemetry.NewTracer(4096)
	// Reference 2 is never sampled ((2-1) % 4096 != 0); one warm-up event
	// grows the clock table.
	ev := probe.Event{Ref: 2, CPU: 0, Kind: probe.EvTimeAccess, Access: stats.KindRead, Aux: 1}
	tr.Event(ev)
	if n := testing.AllocsPerRun(1000, func() { tr.Event(ev) }); n != 0 {
		t.Fatalf("unsampled tracer event allocates %v times", n)
	}
}

func TestRecorderHotPathAllocs(t *testing.T) {
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{
		EventsPerCPU:     64,
		LatencyThreshold: 1 << 40, // armed but never tripped
	})
	ev := probe.Event{Seq: 1, Ref: 1, CPU: 0, Kind: probe.EvL1Hit, Access: stats.KindRead}
	rec.Event(ev) // warm-up allocates the ring
	if n := testing.AllocsPerRun(1000, func() { rec.Event(ev) }); n != 0 {
		t.Fatalf("armed recorder event allocates %v times", n)
	}
}

func TestAttributionHotPathAllocs(t *testing.T) {
	attr := telemetry.NewAttribution(telemetry.AttrConfig{L2Sets: 8})
	miss := probe.Event{Ref: 1, CPU: 0, Kind: probe.EvL1Miss, Access: stats.KindRead, VA: 0x1000, PA: 0x2000}
	charge := probe.Event{Ref: 1, CPU: 0, Kind: probe.EvTimeAccess, Access: stats.KindRead, Aux: 4}
	attr.Event(miss) // warm-up: CPU state and the page's sketch slot
	attr.Event(charge)
	if n := testing.AllocsPerRun(1000, func() { attr.Event(miss); attr.Event(charge) }); n != 0 {
		t.Fatalf("attribution event allocates %v times", n)
	}
}

func BenchmarkTracerUnsampled(b *testing.B) {
	tr := telemetry.NewTracer(4096)
	ev := probe.Event{Ref: 2, CPU: 0, Kind: probe.EvTimeAccess, Access: stats.KindRead, Aux: 1}
	tr.Event(ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Event(ev)
	}
}

func BenchmarkRecorderArmed(b *testing.B) {
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{
		EventsPerCPU:     telemetry.DefaultRecEventsPerCPU,
		LatencyThreshold: 1 << 40,
	})
	ev := probe.Event{Seq: 1, Ref: 1, CPU: 0, Kind: probe.EvL1Hit, Access: stats.KindRead}
	rec.Event(ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Event(ev)
	}
}

// benchRun simulates a scaled pops workload with a selectable telemetry
// stack attached. Comparing against the baseline bounds the end-to-end
// overhead: the 1-in-4096 sampling and the allocation-free hot paths keep
// the tracer + recorder pair within the 2% budget; the attribution
// profiler, which classifies every event, costs more and is benchmarked
// separately so its price stays visible.
func benchRun(b *testing.B, sinks func(sc system.Config, tc tracegen.Config) []probe.Sink) {
	b.Helper()
	tc := tracegen.PopsLike().Scaled(0.02)
	for i := 0; i < b.N; i++ {
		pr := probe.New()
		p := cycles.ContentionParams()
		p.TLBMissPenalty = 8
		eng := cycles.MustNew(p, pr)
		sc := system.Config{
			CPUs:         tc.CPUs,
			Organization: system.VR,
			PageSize:     tc.PageSize,
			L1:           cache.Geometry{Size: 16 << 10, Block: 16, Assoc: 1},
			L2:           cache.Geometry{Size: 256 << 10, Block: 32, Assoc: 1},
			Probe:        pr,
			Cycles:       eng,
		}
		sys, err := system.New(sc)
		if err != nil {
			b.Fatal(err)
		}
		if sinks != nil {
			for _, s := range sinks(sc, tc) {
				pr.AddSink(s)
			}
		}
		if err := tc.SetupSharedMappings(sys.MMU()); err != nil {
			b.Fatal(err)
		}
		gen, err := tracegen.New(tc)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(gen); err != nil {
			b.Fatal(err)
		}
		if err := pr.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tc.TotalRefs)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

func BenchmarkTimedRunBaseline(b *testing.B) { benchRun(b, nil) }

// BenchmarkTimedRunTraced carries the ISSUE's 2% claim: sampled span
// tracing plus the armed flight recorder.
func BenchmarkTimedRunTraced(b *testing.B) {
	benchRun(b, func(system.Config, tracegen.Config) []probe.Sink {
		return []probe.Sink{
			telemetry.NewTracer(telemetry.DefaultSpanSample),
			telemetry.NewRecorder(telemetry.RecorderConfig{LatencyThreshold: 1 << 40}),
		}
	})
}

func BenchmarkTimedRunAttributed(b *testing.B) {
	benchRun(b, func(sc system.Config, tc tracegen.Config) []probe.Sink {
		return []probe.Sink{telemetry.NewAttribution(telemetry.AttrConfig{
			PageSize: tc.PageSize, L2Sets: sc.L2.Sets(), L2Block: sc.L2.Block,
		})}
	})
}
