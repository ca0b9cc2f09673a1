package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/system"
	"repro/internal/tracegen"
)

// soloPass builds the six solo machines and their generators (the set-up,
// repeated setupReps times), runs them one after another on this goroutine
// (the timed section, one job per machine) and checks them.
func (b *bench) soloPass(wl tracegen.Config, t *tracer, pass int, ps *passStats, d *digests) ([]*system.System, error) {
	type built struct {
		systems []*system.System
		gens    []*tracegen.Generator
	}
	m, err := setUp(ps, setupReps, func() (built, error) {
		m := built{make([]*system.System, len(soloMachineNames)), make([]*tracegen.Generator, len(soloMachineNames))}
		for i, name := range soloMachineNames {
			cfg, err := soloMachine(name, wl.CPUs)
			if err != nil {
				return m, err
			}
			if m.systems[i], err = newMachine(cfg, wl); err != nil {
				return m, fmt.Errorf("%s: %w", name, err)
			}
			if m.gens[i], err = tracegen.New(wl); err != nil {
				return m, err
			}
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	systems, gens := m.systems, m.gens

	errs := make([]error, len(systems))
	t1 := time.Now()
	for i, sys := range systems {
		s := time.Now()
		id := t.begin(pass, 0, spanRun+":"+soloMachineNames[i])
		errs[i] = sys.Run(t.reader(gens[i], pass, id))
		t.end(id)
		ps.jobs = append(ps.jobs, time.Since(s))
	}
	ps.wall = append(ps.wall, time.Since(t1))

	var refs uint64
	for i, sys := range systems {
		b.checkMachine(d, "solo/"+soloMachineNames[i], sys, errs[i], uint64(wl.TotalRefs))
		refs += sys.Refs()
	}
	ps.refs = append(ps.refs, refs)
	return systems, nil
}

// soloHalf runs solo passes for one half's budget and returns the last
// pass's machines.
func (b *bench) soloHalf(wl tracegen.Config, t *tracer, d *digests) (*passStats, []*system.System, error) {
	ps := &passStats{}
	var last []*system.System
	err := repeat(b.halfBudget(), func(i int) error {
		systems, err := b.soloPass(wl, t, i, ps, d)
		last = systems
		return err
	})
	return ps, last, err
}

func (b *bench) solo() error {
	wl := b.preset(tracegen.PopsLike(), b.scale.solo)
	b.logf("# solo: %s x%g, %d refs per machine, machines %s",
		wl.Name, b.scale.solo, wl.TotalRefs, strings.Join(soloMachineNames, " "))
	var d digests
	untraced, _, err := b.soloHalf(wl, nil, &d)
	if err != nil {
		return err
	}
	b.recordEndToEnd(untraced, machineLatencies(untraced.jobs))
	if b.o.trace {
		b.zeroLayers()
		t := b.newTracer()
		traced, systems, err := b.soloHalf(wl, t, &d)
		if err != nil {
			return err
		}
		b.recordOverhead(untraced, traced)
		b.soloLayers(t.snapshot(), uint64(wl.TotalRefs), systems)
	}
	b.printDigests(&d)
	return nil
}

// machineLatencies is each solo machine's median run time over the passes,
// in milliseconds (jobs holds the six machines of every pass in run order).
// The job latency quantiles are taken over these six: a quantile of a few
// dozen single runs would rest on the two or three slowest, which the host's
// moment-to-moment speed picks as much as the machines do.
func machineLatencies(jobs []time.Duration) []float64 {
	n := len(soloMachineNames)
	out := make([]float64, n)
	for m := range out {
		var runs []time.Duration
		for i := m; i < len(jobs); i += n {
			runs = append(runs, jobs[i])
		}
		out[m] = median(millis(runs))
	}
	return out
}

// soloLayers derives the solo per-layer metrics from the traced half: each
// machine's System.Run self time (its span minus its ReadBatch children)
// per simulated reference, median over passes; the cycles, victim and rlt
// costs as the median over passes of that pass's difference to vr (the
// machines of one pass run back to back, so the pairing cancels host drift
// between passes); generation time per reference; and the simulated counts
// of the last pass.
func (b *bench) soloLayers(spans []span, refsPerRun uint64, systems []*system.System) {
	self := selfTimes(spans)
	perPass := map[int]map[string]float64{} // pass → machine → ns per reference
	var genNS float64
	var genRefs uint64
	for _, s := range spans {
		if s.Name == spanReadBatch {
			genNS += float64(s.dur())
		} else if m, ok := strings.CutPrefix(s.Name, spanRun+":"); ok {
			if perPass[s.Run] == nil {
				perPass[s.Run] = map[string]float64{}
			}
			perPass[s.Run][m] = float64(self[s.ID]) / float64(refsPerRun)
			genRefs += refsPerRun
		}
	}
	if genRefs > 0 {
		b.set("tracegen.ns_per_ref", genNS/float64(genRefs))
	}
	for _, m := range soloMachineNames {
		var ns []float64
		for _, p := range perPass {
			ns = append(ns, p[m])
		}
		b.set("system.ns_per_ref."+m, median(ns))
	}
	for layer, m := range map[string]string{"cycles": "vr_timed", "victim": "vr_victim", "rlt": "rlt"} {
		var delta []float64
		for _, p := range perPass {
			delta = append(delta, p[m]-p["vr"])
		}
		b.set(layer+".ns_per_ref", median(delta))
	}
	for i, sys := range systems {
		m := soloMachineNames[i]
		for k, v := range simCounts(sys) {
			b.setCount(k+"."+m, v)
		}
		if eng := sys.Cycles(); eng != nil {
			b.set("cycles.tacc."+m, eng.Tacc())
			b.set("cycles.bus_wait_cycles."+m, float64(eng.BusWait()))
		}
	}
}
