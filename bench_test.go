// Benchmarks: one per paper table and figure (each regenerates the
// artifact at 1% trace scale per iteration; run cmd/experiments at scale
// 1.0 for the full published trace lengths), plus reference-throughput
// microbenchmarks of the three cache organizations.
package vrsim_test

import (
	"fmt"
	"io"
	"testing"

	vrsim "repro"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// benchScale keeps single benchmark iterations around tens of
// milliseconds.
const benchScale = 0.01

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkFig4(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9") }
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }
func BenchmarkTable11(b *testing.B) { benchExperiment(b, "table11") }
func BenchmarkTable12(b *testing.B) { benchExperiment(b, "table12") }
func BenchmarkTable13(b *testing.B) { benchExperiment(b, "table13") }

func BenchmarkInclusionInvalidations(b *testing.B) { benchExperiment(b, "inclusion") }
func BenchmarkAssocBound(b *testing.B)             { benchExperiment(b, "assoc") }
func BenchmarkAssocBoundEmpirical(b *testing.B)    { benchExperiment(b, "assocbound") }
func BenchmarkWriteBufferDepth(b *testing.B)       { benchExperiment(b, "wbdepth") }
func BenchmarkEagerFlush(b *testing.B)             { benchExperiment(b, "eagerflush") }
func BenchmarkPIDTags(b *testing.B)                { benchExperiment(b, "pidtags") }
func BenchmarkUpdateProtocol(b *testing.B)         { benchExperiment(b, "protocol") }
func BenchmarkRelaxedReplacement(b *testing.B)     { benchExperiment(b, "replacement") }
func BenchmarkWritePolicy(b *testing.B)            { benchExperiment(b, "writepolicy") }
func BenchmarkScaling(b *testing.B)                { benchExperiment(b, "scaling") }
func BenchmarkBandwidth(b *testing.B)              { benchExperiment(b, "bandwidth") }
func BenchmarkAssocSweep(b *testing.B)             { benchExperiment(b, "assocsweep") }
func BenchmarkPageSize(b *testing.B)               { benchExperiment(b, "pagesize") }
func BenchmarkTLBPressure(b *testing.B)            { benchExperiment(b, "tlb") }

// benchOrganization measures raw simulation throughput in references per
// second for one cache organization.
func benchOrganization(b *testing.B, org vrsim.Organization) {
	b.Helper()
	wl := vrsim.PopsWorkload().Scaled(benchScale)
	b.ReportAllocs()
	var refs uint64
	for i := 0; i < b.N; i++ {
		sys, err := vrsim.New(vrsim.Config{
			CPUs:         wl.CPUs,
			Organization: org,
			L1:           vrsim.Geometry{Size: 16 << 10, Block: 16, Assoc: 1},
			L2:           vrsim.Geometry{Size: 256 << 10, Block: 32, Assoc: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := vrsim.RunWorkload(sys, wl); err != nil {
			b.Fatal(err)
		}
		refs += sys.Refs()
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
}

func BenchmarkThroughputVR(b *testing.B)            { benchOrganization(b, vrsim.VR) }
func BenchmarkThroughputRRInclusion(b *testing.B)   { benchOrganization(b, vrsim.RRInclusion) }
func BenchmarkThroughputRRNoInclusion(b *testing.B) { benchOrganization(b, vrsim.RRNoInclusion) }

// benchProbed is benchOrganization with the observability layer on:
// counts-only (a probe with no sinks) or with a windowed-metrics sink
// consuming the full event stream. BenchmarkThroughput* above is the
// nil-probe baseline the <5% disabled-overhead budget is measured against.
func benchProbed(b *testing.B, org vrsim.Organization, sink bool) {
	b.Helper()
	wl := vrsim.PopsWorkload().Scaled(benchScale)
	b.ReportAllocs()
	var refs uint64
	for i := 0; i < b.N; i++ {
		pr := vrsim.NewProbe()
		if sink {
			pr.AddSink(vrsim.NewMetricWindows(1000))
		}
		sys, err := vrsim.New(vrsim.Config{
			CPUs:         wl.CPUs,
			Organization: org,
			L1:           vrsim.Geometry{Size: 16 << 10, Block: 16, Assoc: 1},
			L2:           vrsim.Geometry{Size: 256 << 10, Block: 32, Assoc: 1},
			Probe:        pr,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := vrsim.RunWorkload(sys, wl); err != nil {
			b.Fatal(err)
		}
		if err := pr.Close(); err != nil {
			b.Fatal(err)
		}
		refs += sys.Refs()
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
}

func BenchmarkThroughputVRProbeCounts(b *testing.B)  { benchProbed(b, vrsim.VR, false) }
func BenchmarkThroughputVRProbeWindows(b *testing.B) { benchProbed(b, vrsim.VR, true) }

// sweepBenchConfigs deals out n distinct machine configurations, cycling
// organizations and size pairs the way the paper's tables do.
func sweepBenchConfigs(n, cpus int) []vrsim.Config {
	orgs := []vrsim.Organization{vrsim.VR, vrsim.RRInclusion, vrsim.RRNoInclusion}
	pairs := [][2]uint64{
		{4 << 10, 64 << 10}, {8 << 10, 128 << 10}, {16 << 10, 256 << 10},
		{4 << 10, 128 << 10}, {8 << 10, 256 << 10}, {16 << 10, 512 << 10},
	}
	cfgs := make([]vrsim.Config, n)
	for i := range cfgs {
		p := pairs[(i/len(orgs))%len(pairs)]
		cfgs[i] = vrsim.Config{
			CPUs:         cpus,
			Organization: orgs[i%len(orgs)],
			L1:           vrsim.Geometry{Size: p[0], Block: 16, Assoc: 1},
			L2:           vrsim.Geometry{Size: p[1], Block: 32, Assoc: 1},
		}
	}
	return cfgs
}

// BenchmarkSweepNConfigs measures the single-pass sweep engine: one trace
// generation feeding N simulated configurations. refs/s is the aggregate
// across all N systems; the scaling of interest is wall time versus N,
// compared with N sequential runs each regenerating the trace.
func BenchmarkSweepNConfigs(b *testing.B) {
	for _, n := range []int{1, 2, 6, 18} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			wl := vrsim.PopsWorkload().Scaled(benchScale)
			cfgs := sweepBenchConfigs(n, wl.CPUs)
			b.ReportAllocs()
			var refs uint64
			for i := 0; i < b.N; i++ {
				systems := make([]*vrsim.System, n)
				for j, cfg := range cfgs {
					sys, err := vrsim.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := wl.SetupSharedMappings(sys.MMU()); err != nil {
						b.Fatal(err)
					}
					systems[j] = sys
				}
				gen, err := vrsim.NewWorkload(wl)
				if err != nil {
					b.Fatal(err)
				}
				if err := sweep.Run(gen, systems, sweep.Options{}); err != nil {
					b.Fatal(err)
				}
				for _, sys := range systems {
					refs += sys.Refs()
				}
			}
			b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// BenchmarkTraceGeneration measures the synthetic workload generator
// alone.
func BenchmarkTraceGeneration(b *testing.B) {
	wl := vrsim.PopsWorkload().Scaled(benchScale)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen, err := vrsim.NewWorkload(wl)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := gen.Next(); err != nil {
				break
			}
		}
	}
}
