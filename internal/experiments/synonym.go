package experiments

import (
	"fmt"
	"io"

	"repro/internal/autotune"
	"repro/internal/bus"
	"repro/internal/cycles"
	"repro/internal/system"
	"repro/internal/tracegen"
)

// SynonymStrategy compares the paper's synonym mechanism against the two
// optional components of the V-R controller that change it (DESIGN.md §18),
// on the paper's main machine (16K/256K direct-mapped, pops). The three strategies resolve the
// same synonyms — the differential harness proves data behaviour is
// identical — so the table isolates what each one costs and buys:
//
//   - vptr: the paper's per-subentry v-pointers. The baseline; its rows
//     must reproduce Table 6's V-R hit ratios exactly.
//   - rlt: a bounded reverse-lookup table instead of a pointer per
//     subentry. Less SRAM, but capacity evictions force otherwise-live
//     first-level lines out, which shows up as a lower h1 (the refills
//     come back from the second level).
//   - victim: a small victim cache under the first level (orthogonal —
//     shown on both strategies). Extra SRAM, but conflict victims return
//     at TVictim instead of t2, which shows up in measured Tacc.
func SynonymStrategy(w io.Writer, scale float64) error {
	tc := scaled(tracegen.PopsLike(), scale)
	p := mainSizePairs()[2]
	cp := cycles.ContentionParams()
	cp.TVictim = 2 // Jouppi-style fast side array: cheaper than t2=4

	variants := []struct {
		label  string
		org    system.Organization
		victim int
		rlt    int
	}{
		{"vptr (paper)", system.VR, 0, 0},
		{"vptr+victim", system.VR, 4, 0},
		{"rlt", system.VRRLT, 0, 0},
		{"rlt+victim", system.VRRLT, 4, 0},
	}

	fmt.Fprintf(w, "synonym strategies (%s, sizes %s, B1=16 B2=32, direct-mapped)\n", tc.Name, p.label)
	fmt.Fprintf(w, "latencies t1=%d t2=%d tm=%d tvictim=%d, contention on\n\n",
		cp.T1, cp.T2, cp.TM, cp.TVictim)
	fmt.Fprintf(w, "%-13s %-7s %-7s %-10s %-10s %-10s %-11s %s\n",
		"strategy", "h1", "h2", "bus/1kref", "vic hits", "rlt evict", "SRAM kbit", "Tacc")

	engines := make([]*cycles.Engine, len(variants))
	scs := make([]system.Config, len(variants))
	for i, v := range variants {
		engines[i] = cycles.MustNew(cp, nil)
		sc := machineConfig(tc, p, v.org)
		sc.VictimEntries = v.victim
		sc.RLTEntries = v.rlt
		sc.Cycles = engines[i]
		scs[i] = sc
	}
	systems, err := runSweep(tc, scs)
	if err != nil {
		return err
	}
	for i, v := range variants {
		sys := systems[i]
		agg := sys.Aggregate()
		bs := sys.Bus().Stats()
		txns := bs.Count(bus.Read) + bs.Count(bus.ReadMod) + bs.Count(bus.Invalidate) + bs.Count(bus.Update)
		var vicHits, rltEv uint64
		for cpu := 0; cpu < sys.CPUs(); cpu++ {
			st := sys.Stats(cpu)
			vicHits += st.VictimHits
			rltEv += st.RLTEvictions
		}
		fmt.Fprintf(w, "%-13s %-7.3f %-7.3f %-10.1f %-10d %-10d %-11.1f %.4f\n",
			v.label, agg.H1, agg.H2,
			1000*float64(txns)/float64(sys.Refs()),
			vicHits, rltEv,
			float64(autotune.SRAMBits(scs[i]))/1024,
			engines[i].Tacc())
	}
	fmt.Fprintln(w, "\nshape to match: the vptr rows reproduce Table 6's V-R column; the rlt rows")
	fmt.Fprintln(w, "trade a lower SRAM bill for forced first-level evictions — a lower h1, with")
	fmt.Fprintln(w, "the refills absorbed by the second level as a higher h2 and no extra bus")
	fmt.Fprintln(w, "traffic; the victim rows spend a little SRAM to cut Tacc on both strategies.")
	return nil
}
