package vrsim_test

// Replay-based consistency check of the observability layer: every counter
// in internal/stats is mirrored by exactly one probe event at the emission
// site, so summing the event stream must reproduce the counters exactly —
// for each organization and for the policy variants that exercise the
// remaining event kinds (eager flush, write-update, write-through). The
// Table 4 kinds no counter mirrors obey a fill identity instead: every
// first-level fill ends in exactly one data supply or synonym resolution.

import (
	"fmt"
	"testing"

	vrsim "repro"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// cpuTally accumulates per-CPU event counts, splitting access events by
// reference kind and write-backs by their aux flags.
type cpuTally struct {
	kinds          [probe.NumKinds]uint64
	aux            [probe.NumKinds]uint64 // summed Aux; cycles for timing kinds
	l1Hits, l1Miss [3]uint64              // by stats.AccessKind
	l2Hits, l2Miss [3]uint64
	swapped, eager uint64
}

type tallySink struct {
	cpus map[int]*cpuTally
}

func (t *tallySink) of(cpu int) *cpuTally {
	c := t.cpus[cpu]
	if c == nil {
		c = &cpuTally{}
		t.cpus[cpu] = c
	}
	return c
}

func (t *tallySink) Event(ev probe.Event) {
	c := t.of(ev.CPU)
	c.kinds[ev.Kind]++
	switch ev.Kind {
	case probe.EvL1Hit:
		c.l1Hits[ev.Access]++
	case probe.EvL1Miss:
		c.l1Miss[ev.Access]++
	case probe.EvL2Hit:
		c.l2Hits[ev.Access]++
	case probe.EvL2Miss:
		c.l2Miss[ev.Access]++
	case probe.EvWriteBack:
		if ev.Aux&probe.WBSwapped != 0 {
			c.swapped++
		}
		if ev.Aux&probe.WBEager != 0 {
			c.eager++
		}
	case probe.EvTimeAccess, probe.EvTimeTLBMiss, probe.EvTimeBusWait,
		probe.EvTimeWBStall, probe.EvTimeCtxSwitch:
		c.aux[ev.Kind] += ev.Aux
	}
}

// synKinds maps core synonym classifications to their event kinds.
var synKinds = map[core.SynonymKind]probe.Kind{
	core.SynSameSet:  probe.EvSynSameSet,
	core.SynMove:     probe.EvSynMove,
	core.SynCross:    probe.EvSynCross,
	core.SynBuffered: probe.EvSynBuffered,
}

// cohKinds are the event kinds that mirror stats.CoherenceStats records.
var cohKinds = []probe.Kind{
	probe.EvCohInvalidate, probe.EvCohFlush, probe.EvCohInvalidateBuffer,
	probe.EvCohFlushBuffer, probe.EvCohUpdate, probe.EvCohProbe,
	probe.EvInclusionInval,
}

// timingParams exercises every timing event kind: a contended bus plus
// non-zero TLB and context-switch penalties.
func timingParams() vrsim.CycleParams {
	p := vrsim.ContentionCycleParams()
	p.TLBMissPenalty = 8
	p.CtxSwitchCost = 40
	return p
}

func checkConsistency(t *testing.T, cfg vrsim.Config) {
	t.Helper()
	pr := probe.New() // the sink tallies each event inside the Emit that produced it
	sink := &tallySink{cpus: map[int]*cpuTally{}}
	pr.AddSink(sink)
	cfg.Probe = pr
	eng, err := vrsim.NewCycleEngine(timingParams(), pr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cycles = eng

	wl := vrsim.PopsWorkload().Scaled(0.01)
	cfg.CPUs = wl.CPUs
	sys, err := vrsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vrsim.RunWorkload(sys, wl); err != nil {
		t.Fatal(err)
	}
	verifyEventsMatchStats(t, cfg, sys, pr, sink)
}

// verifyEventsMatchStats requires every internal/stats counter of sys to be
// reproduced exactly by the event tallies accumulated in sink.
func verifyEventsMatchStats(t *testing.T, cfg vrsim.Config, sys *vrsim.System, pr *probe.Probe, sink *tallySink) {
	t.Helper()
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		st := sys.Stats(cpu)
		c := sink.of(cpu)
		eq := func(what string, got, want uint64) {
			t.Helper()
			if got != want {
				t.Errorf("cpu %d: %s: events %d, stats %d", cpu, what, got, want)
			}
		}
		for _, k := range stats.Kinds() {
			eq(fmt.Sprintf("L1 %v hits", k), c.l1Hits[k], st.L1.ByKind[k].Hits)
			eq(fmt.Sprintf("L1 %v misses", k), c.l1Miss[k], st.L1.ByKind[k].Misses())
			eq(fmt.Sprintf("L2 %v hits", k), c.l2Hits[k], st.L2.ByKind[k].Hits)
			eq(fmt.Sprintf("L2 %v misses", k), c.l2Miss[k], st.L2.ByKind[k].Misses())
		}
		eq("TLB hits", c.kinds[probe.EvTLBHit], st.TLB.Hits)
		eq("TLB misses", c.kinds[probe.EvTLBMiss], st.TLB.Misses)
		eq("context switches", c.kinds[probe.EvCtxSwitch], st.CtxSwitches)
		eq("write-backs", c.kinds[probe.EvWriteBack], st.WriteBacks)
		eq("swapped write-backs", c.swapped, st.SwappedWriteBacks)
		eq("eager-flush write-backs", c.eager, st.EagerFlushWriteBacks)
		eq("inclusion invalidations", c.kinds[probe.EvInclusionInval], st.InclusionInvals)
		eq("buffer stalls", c.kinds[probe.EvWBStall], st.BufferStalls)
		eq("victim hits", c.kinds[probe.EvVictimHit], st.VictimHits)
		eq("victim inserts", c.kinds[probe.EvVictimInsert], st.VictimInserts)
		eq("RLT evictions", c.kinds[probe.EvRLTEvict], st.RLTEvictions)
		for syn, k := range synKinds {
			eq(syn.String(), c.kinds[k], st.Synonyms[syn])
		}
		var coh uint64
		for _, k := range cohKinds {
			coh += c.kinds[k]
		}
		eq("coherence messages to L1", coh, st.Coherence.Total())

		// Fill identity: every first-level miss that fills (all of them,
		// except a write-through L1's non-allocating write misses) ends in
		// one data supply or one synonym resolution. The no-inclusion
		// baseline has no Table 4 interface and emits none of its kinds.
		var fills uint64
		for _, k := range stats.Kinds() {
			if !cfg.L1WriteThrough || k != stats.KindWrite {
				fills += st.L1.ByKind[k].Misses()
			}
		}
		supplied := c.kinds[probe.EvDataSupply]
		for _, k := range synKinds {
			supplied += c.kinds[k]
		}
		if cfg.Organization == vrsim.RRNoInclusion {
			eq("replacements", c.kinds[probe.EvL1Replace], 0)
			eq("data supplies", c.kinds[probe.EvDataSupply], 0)
			eq("invacks", c.kinds[probe.EvInvAck], 0)
		} else {
			eq("data supplies + synonym resolutions", supplied, fills)
		}

		// When a cycle engine rode the run, the timing events' durations
		// must sum to exactly the engine's per-CPU cycle counters.
		if eng := sys.Cycles(); eng != nil {
			at := eng.Agent(cpu)
			eq("access cycles", c.aux[probe.EvTimeAccess], at.Access)
			eq("TLB penalty cycles", c.aux[probe.EvTimeTLBMiss], at.TLB)
			eq("bus-wait cycles", c.aux[probe.EvTimeBusWait], at.BusWait)
			eq("stall cycles", c.aux[probe.EvTimeWBStall], at.Stall)
			eq("context-switch cycles", c.aux[probe.EvTimeCtxSwitch], at.Ctx)
			timeSum := c.aux[probe.EvTimeAccess] + c.aux[probe.EvTimeTLBMiss] +
				c.aux[probe.EvTimeBusWait] + c.aux[probe.EvTimeWBStall] +
				c.aux[probe.EvTimeCtxSwitch]
			eq("agent clock", timeSum, at.Clock)
		}
	}

	// Bus transactions are attributed to the issuing agent; sum them.
	var busEv [4]uint64
	for _, c := range sink.cpus {
		busEv[0] += c.kinds[probe.EvBusRead]
		busEv[1] += c.kinds[probe.EvBusReadMod]
		busEv[2] += c.kinds[probe.EvBusInvalidate]
		busEv[3] += c.kinds[probe.EvBusUpdate]
	}
	bs := sys.Bus().Stats()
	for i, kind := range []bus.Kind{bus.Read, bus.ReadMod, bus.Invalidate, bus.Update} {
		if busEv[i] != bs.Count(kind) {
			t.Errorf("bus %v: events %d, stats %d", kind, busEv[i], bs.Count(kind))
		}
	}

	// The run must actually exercise the machinery it claims to check.
	// (Write-through L1 lines are never dirty, so no write-backs there.)
	total := pr.Counts()
	if total.Of(probe.EvL1Miss) == 0 || total.Of(probe.EvCtxSwitch) == 0 ||
		(!cfg.L1WriteThrough && total.Of(probe.EvWriteBack) == 0) {
		t.Errorf("workload too small to exercise the hierarchy: %v", total.Map())
	}
	if cfg.Organization != vrsim.RRNoInclusion &&
		(total.Of(probe.EvL1Replace) == 0 || total.Of(probe.EvDataSupply) == 0 ||
			(!cfg.L1WriteThrough && total.Of(probe.EvInvAck) == 0)) {
		t.Errorf("workload too small to raise the Table 4 signals: %v", total.Map())
	}
	if cfg.VictimEntries > 0 && total.Of(probe.EvVictimInsert) == 0 {
		t.Errorf("victim cache configured but never filled: %v", total.Map())
	}
	if cfg.Organization == vrsim.VRRLT && total.Of(probe.EvRLTEvict) == 0 {
		t.Errorf("RLT configured but never evicted: %v", total.Map())
	}
}

func probeTestConfig(org vrsim.Organization) vrsim.Config {
	return vrsim.Config{
		Organization: org,
		L1:           vrsim.Geometry{Size: 1 << 10, Block: 16, Assoc: 1},
		L2:           vrsim.Geometry{Size: 8 << 10, Block: 32, Assoc: 1},
	}
}

func TestProbeEventsMatchStats(t *testing.T) {
	for _, org := range []vrsim.Organization{vrsim.VR, vrsim.RRInclusion, vrsim.RRNoInclusion, vrsim.VRRLT} {
		t.Run(org.String(), func(t *testing.T) {
			cfg := probeTestConfig(org)
			if org == vrsim.VRRLT {
				cfg.RLTEntries = 16 // under-provisioned: capacity evictions occur
			}
			checkConsistency(t, cfg)
		})
	}
}

func TestProbeEventsMatchStatsVariants(t *testing.T) {
	eager := probeTestConfig(vrsim.VR)
	eager.EagerCtxFlush = true
	update := probeTestConfig(vrsim.VR)
	update.Protocol = vrsim.WriteUpdate
	wthrough := probeTestConfig(vrsim.VR)
	wthrough.L1WriteThrough = true
	wthrough.WriteBufDepth = 2
	pid := probeTestConfig(vrsim.VR)
	pid.PIDTagged = true
	vrVictim := probeTestConfig(vrsim.VR)
	vrVictim.VictimEntries = 4
	niVictim := probeTestConfig(vrsim.RRNoInclusion)
	niVictim.VictimEntries = 4
	rltVictim := probeTestConfig(vrsim.VRRLT)
	rltVictim.RLTEntries = 16
	rltVictim.VictimEntries = 4
	wtVictim := probeTestConfig(vrsim.VR)
	wtVictim.L1WriteThrough = true
	wtVictim.WriteBufDepth = 2
	wtVictim.VictimEntries = 4
	cases := map[string]vrsim.Config{
		"eager-flush":          eager,
		"write-update":         update,
		"write-through":        wthrough,
		"pid-tagged":           pid,
		"vr-victim":            vrVictim,
		"noincl-victim":        niVictim,
		"rlt-victim":           rltVictim,
		"write-through-victim": wtVictim,
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) { checkConsistency(t, cfg) })
	}
}

// TestProbeEventsMatchStatsBatched runs the same consistency check through
// the sweep engine's batched broadcast path: two identically configured
// probed machines share one generated trace, each must (a) keep its event
// stream consistent with its counters and (b) tally exactly the same events
// as a sequential reference run of the same configuration.
func TestProbeEventsMatchStatsBatched(t *testing.T) {
	wl := vrsim.PopsWorkload().Scaled(0.01)

	newProbed := func() (vrsim.Config, *probe.Probe, *tallySink) {
		cfg := probeTestConfig(vrsim.VR)
		cfg.CPUs = wl.CPUs
		pr := probe.New()
		sink := &tallySink{cpus: map[int]*cpuTally{}}
		pr.AddSink(sink)
		cfg.Probe = pr
		eng, err := vrsim.NewCycleEngine(timingParams(), pr)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cycles = eng
		return cfg, pr, sink
	}

	// Sequential reference run.
	refCfg, _, refSink := newProbed()
	refSys, err := vrsim.New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vrsim.RunWorkload(refSys, wl); err != nil {
		t.Fatal(err)
	}

	// Two identical machines driven by one trace pass through the sweep.
	const n = 2
	systems := make([]*vrsim.System, n)
	prs := make([]*probe.Probe, n)
	sinks := make([]*tallySink, n)
	cfgs := make([]vrsim.Config, n)
	for i := range systems {
		cfgs[i], prs[i], sinks[i] = newProbed()
		sys, err := vrsim.New(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := wl.SetupSharedMappings(sys.MMU()); err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	gen, err := vrsim.NewWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.Run(gen, systems, sweep.Options{BatchSize: 128}); err != nil {
		t.Fatal(err)
	}

	for i, sys := range systems {
		verifyEventsMatchStats(t, cfgs[i], sys, prs[i], sinks[i])
		if got, want := len(sinks[i].cpus), len(refSink.cpus); got != want {
			t.Errorf("system %d: events from %d CPUs, reference saw %d", i, got, want)
		}
		for cpu, want := range refSink.cpus {
			if got := sinks[i].of(cpu); *got != *want {
				t.Errorf("system %d cpu %d: batched tally diverged from sequential run\n got %+v\nwant %+v",
					i, cpu, *got, *want)
			}
		}
	}
}
