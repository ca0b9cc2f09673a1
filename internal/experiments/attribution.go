package experiments

import (
	"fmt"
	"io"

	"repro/internal/cycles"
	"repro/internal/probe"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
)

// Attribution answers the question the timed tables raise: the V-R and R-R
// hierarchies land on different measured Tacc — *which mechanism* gets the
// extra cycles? It runs pops on 4 CPUs under both organizations with the
// cycle-attribution profiler attached, verifies each profile reconciles
// exactly with its engine's clocks, prints both blame breakdowns, and
// closes with the mechanism-by-mechanism diff.
func Attribution(w io.Writer, scale float64) error {
	tc := scaled(tracegen.PopsLike(), scale)
	p := mainSizePairs()[2] // 16K/256K, the paper's largest pair
	cp := cycles.ContentionParams()
	cp.TLBMissPenalty = 8
	cp.CtxSwitchCost = 10
	fmt.Fprintf(w, "cycle attribution by mechanism (%s, sizes %s, %d CPUs)\n", tc.Name, p.label, tc.CPUs)
	fmt.Fprintf(w, "latencies t1=%d t2=%d tm=%d, tlb-penalty=%d, ctx-cost=%d; bus occupancy mem=%d ctrl=%d wb=%d, contention on\n\n",
		cp.T1, cp.T2, cp.TM, cp.TLBMissPenalty, cp.CtxSwitchCost,
		cp.BusMemOcc, cp.BusCtrlOcc, cp.BusWBOcc)

	orgs := []system.Organization{system.VR, system.RRInclusion}
	reports := make([]*telemetry.AttributionReport, len(orgs))
	for i, org := range orgs {
		pr := probe.New()
		eng := cycles.MustNew(cp, pr)
		sc := machineConfig(tc, p, org)
		sc.Probe, sc.Cycles = pr, eng
		sys, err := system.New(sc)
		if err != nil {
			return err
		}
		attr := telemetry.NewAttribution(telemetry.AttrConfig{
			PageSize: sys.Config().PageSize,
			L2Sets:   sc.L2.Sets(),
			L2Block:  sc.L2.Block,
		})
		pr.AddSink(attr)
		if err := tc.SetupSharedMappings(sys.MMU()); err != nil {
			return err
		}
		gen, err := tracegen.New(tc)
		if err != nil {
			return err
		}
		if err := sys.Run(gen); err != nil {
			return err
		}
		if err := pr.Close(); err != nil {
			return err
		}
		if err := attr.Reconcile(eng); err != nil {
			return err
		}
		reports[i] = attr.Report()
		fmt.Fprintf(w, "%s: attribution reconciles with the engine to the cycle\n", org)
		fmt.Fprintf(w, "%-16s %14s %8s\n", "mechanism", "cycles", "share")
		for _, m := range reports[i].Mechanisms {
			var share float64
			if reports[i].TotalCycles > 0 {
				share = 100 * float64(m.Cycles) / float64(reports[i].TotalCycles)
			}
			fmt.Fprintf(w, "%-16s %14d %7.2f%%\n", m.Mechanism, m.Cycles, share)
		}
		fmt.Fprintln(w)
	}
	return telemetry.DiffText(w, orgs[0].String(), reports[0], orgs[1].String(), reports[1])
}
