package main

import (
	"fmt"
	"time"

	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/tracegen"
)

// sweepPass builds the 18 machines and one generator (the set-up, repeated
// setupReps times), runs one sweep.Run with the run's worker count (the
// timed section, one job), and checks every machine.
func (b *bench) sweepPass(wl tracegen.Config, t *tracer, pass int, ps *passStats, d *digests) ([]*system.System, error) {
	ms := sweepMachines(wl.CPUs)
	type built struct {
		systems []*system.System
		gen     *tracegen.Generator
	}
	m, err := setUp(ps, setupReps, func() (built, error) {
		m := built{systems: make([]*system.System, len(ms))}
		for i, mc := range ms {
			var err error
			if m.systems[i], err = newMachine(mc.cfg, wl); err != nil {
				return m, fmt.Errorf("%s: %w", mc.name, err)
			}
		}
		var err error
		m.gen, err = tracegen.New(wl)
		return m, err
	})
	if err != nil {
		return nil, err
	}
	systems, gen := m.systems, m.gen

	t1 := time.Now()
	id := t.begin(pass, 0, spanSweep)
	runErr := sweep.Run(t.reader(gen, pass, id), systems, sweep.Options{Workers: b.o.workers})
	t.end(id)
	wall := time.Since(t1)
	ps.wall = append(ps.wall, wall)
	ps.jobs = append(ps.jobs, wall)

	var refs uint64
	for i, sys := range systems {
		b.checkMachine(d, "sweep/"+ms[i].name, sys, runErr, uint64(wl.TotalRefs))
		refs += sys.Refs()
	}
	ps.refs = append(ps.refs, refs)
	return systems, nil
}

// sweepHalf runs sweep passes for one half's budget and returns the last
// pass's machines.
func (b *bench) sweepHalf(wl tracegen.Config, t *tracer, d *digests) (*passStats, []*system.System, error) {
	ps := &passStats{}
	var last []*system.System
	err := repeat(b.halfBudget(), func(i int) error {
		systems, err := b.sweepPass(wl, t, i, ps, d)
		last = systems
		return err
	})
	return ps, last, err
}

func (b *bench) sweep() error {
	wl := b.preset(tracegen.ThorLike(), b.scale.sweep)
	b.logf("# sweep: %s x%g, %d refs, 18 machines, %d workers", wl.Name, b.scale.sweep, wl.TotalRefs, b.o.workers)
	var d digests
	untraced, _, err := b.sweepHalf(wl, nil, &d)
	if err != nil {
		return err
	}
	b.recordEndToEnd(untraced, millis(untraced.jobs))
	if b.o.trace {
		b.zeroLayers()
		t := b.newTracer()
		traced, systems, err := b.sweepHalf(wl, t, &d)
		if err != nil {
			return err
		}
		b.recordOverhead(untraced, traced)
		b.sweepLayers(t.snapshot(), uint64(wl.TotalRefs), systems)
	}
	b.printDigests(&d)
	return nil
}

// sweepLayers derives the sweep per-layer metrics: generation time per
// reference; the broadcaster's time between ReadBatch calls (the sweep.Run
// span's self time) and its batch count, median over passes; and the
// simulated counts summed over the last pass's machines.
func (b *bench) sweepLayers(spans []span, refsPerPass uint64, systems []*system.System) {
	self := selfTimes(spans)
	var genNS float64
	batches := map[int]float64{}
	for _, s := range spans {
		if s.Name == spanReadBatch {
			genNS += float64(s.dur())
			batches[s.Parent]++
		}
	}
	var idle, counts []float64
	for _, s := range spans {
		if s.Name == spanSweep {
			idle = append(idle, self[s.ID].Seconds())
			counts = append(counts, batches[s.ID])
		}
	}
	if len(idle) > 0 {
		b.set("tracegen.ns_per_ref", genNS/float64(uint64(len(idle))*refsPerPass))
	}
	b.set("sweep.producer_idle_s", median(idle))
	b.set("sweep.batches", median(counts))
	sum := map[string]uint64{}
	for _, sys := range systems {
		for k, v := range simCounts(sys) {
			sum[k] += v
		}
	}
	for k, v := range sum {
		b.setCount(k+".sweep", v)
	}
}
