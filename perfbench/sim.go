package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/report"
	"repro/internal/system"
	"repro/internal/tracegen"
)

// The preset seeds: the default --seed of each workload, so default runs
// simulate exactly the traces EXPERIMENTS.md reports on.
var (
	popsSeed = tracegen.PopsLike().Seed
	thorSeed = tracegen.ThorLike().Seed
)

// simScale holds the trace scales of the simulation workloads; tests
// shrink them.
type simScale struct {
	solo, sweep, autotune float64
}

// benchScale is the scale the benchmark runs at.
var benchScale = simScale{solo: 1, sweep: 1, autotune: 0.01}

// preset returns a scaled preset with its seed replaced by the run's seed.
func (b *bench) preset(base tracegen.Config, scale float64) tracegen.Config {
	wl := base
	if scale != 1 {
		wl = wl.Scaled(scale)
	}
	wl.Seed = b.o.seed
	return wl
}

// paperMachine is a direct-mapped machine with the paper's 16-byte L1 and
// 32-byte L2 blocks.
func paperMachine(cpus int, org system.Organization, l1, l2 uint64) system.Config {
	return system.Config{
		CPUs:         cpus,
		Organization: org,
		L1:           cache.Geometry{Size: l1, Block: 16, Assoc: 1},
		L2:           cache.Geometry{Size: l2, Block: 32, Assoc: 1},
	}
}

// soloMachine returns the configuration of one of the six solo machines,
// all 16K/256K.
func soloMachine(name string, cpus int) (system.Config, error) {
	cfg := paperMachine(cpus, system.VR, 16<<10, 256<<10)
	switch name {
	case "vr":
	case "rr":
		cfg.Organization = system.RRInclusion
	case "rrnoincl":
		cfg.Organization = system.RRNoInclusion
	case "rlt":
		cfg.Organization = system.VRRLT
	case "vr_victim":
		cfg.VictimEntries = 4
	case "vr_timed":
		eng, err := cycles.New(cycles.ContentionParams(), nil)
		if err != nil {
			return cfg, err
		}
		cfg.Cycles = eng
	default:
		return cfg, fmt.Errorf("unknown solo machine %q", name)
	}
	return cfg, nil
}

// namedConfig is one sweep machine.
type namedConfig struct {
	name string
	cfg  system.Config
}

// sweepMachines deals out the sweep's 18 untimed machines: the four
// organizations against five L1/L2 size pairs from 4K/64K to 64K/1M (the
// two cycles are coprime, so all 18 pairs differ), every third machine with
// a 4-entry victim cache.
func sweepMachines(cpus int) []namedConfig {
	orgs := []struct {
		name string
		org  system.Organization
	}{{"vr", system.VR}, {"rr", system.RRInclusion}, {"rrnoincl", system.RRNoInclusion}, {"rlt", system.VRRLT}}
	sizes := [][2]uint64{{4 << 10, 64 << 10}, {8 << 10, 128 << 10}, {16 << 10, 256 << 10}, {32 << 10, 512 << 10}, {64 << 10, 1 << 20}}
	out := make([]namedConfig, 18)
	for i := range out {
		o, s := orgs[i%len(orgs)], sizes[i%len(sizes)]
		nc := namedConfig{
			name: fmt.Sprintf("%s_%dk_%dk", o.name, s[0]>>10, s[1]>>10),
			cfg:  paperMachine(cpus, o.org, s[0], s[1]),
		}
		if i%3 == 2 {
			nc.cfg.VictimEntries = 4
			nc.name += "_vc4"
		}
		out[i] = nc
	}
	return out
}

// newMachine builds a machine with the workload's shared mappings.
func newMachine(cfg system.Config, wl tracegen.Config) (*system.System, error) {
	sys, err := system.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := wl.SetupSharedMappings(sys.MMU()); err != nil {
		return nil, err
	}
	return sys, nil
}

// setUp times build reps times and keeps the last result. A pass's set-up
// is short next to its timed section, so each pass contributes several
// samples to the set-up median. Collections run outside the timings, so
// neither the set-up nor the timed section pays for earlier garbage.
func setUp[T any](ps *passStats, reps int, build func() (T, error)) (T, error) {
	var v T
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, err
		}
		ps.setup = append(ps.setup, time.Since(t0))
	}
	runtime.GC()
	return v, nil
}

// repeat runs pass until the budget is spent (at least once), stopping
// rather than overrun the budget by more than half a pass.
func repeat(budget time.Duration, pass func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		t := time.Now()
		if err := pass(i); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t)/2 >= budget {
			return nil
		}
	}
}

// digestOf hashes a document's canonical JSON (first 8 bytes, hex).
func digestOf(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// machineDigest digests a finished machine's report.FromSystem fields. The
// build stamp is dropped: it names the commit, not the simulation.
func machineDigest(sys *system.System) (string, error) {
	res := report.FromSystem(sys, sys.Config())
	res.Build = nil
	return digestOf(res)
}

// digests remembers the first digest seen per operation key, so every later
// pass of the same seed must reproduce it.
type digests struct {
	first map[string]string
	order []string
}

// checkDigest compares an operation's digest with the first pass's and, at
// the default seed, with the pinned one. It returns a failure reason or "".
func (b *bench) checkDigest(d *digests, key, got string) string {
	if d.first == nil {
		d.first = map[string]string{}
	}
	if prev, ok := d.first[key]; !ok {
		d.first[key] = got
		d.order = append(d.order, key)
	} else if prev != got {
		return fmt.Sprintf("digest %s differs from the first pass's %s", got, prev)
	}
	if b.defaultSeed() {
		if pin, ok := b.pins[key]; ok && pin != got {
			return fmt.Sprintf("digest %s differs from the pinned %s", got, pin)
		}
	}
	return ""
}

// printDigests prints every operation's digest and their combined digest.
func (b *bench) printDigests(d *digests) {
	all := make([]string, 0, len(d.order))
	for _, k := range d.order {
		b.logf("digest %-36s %s", k, d.first[k])
		all = append(all, k+"="+d.first[k])
	}
	sum, err := digestOf(all)
	if err == nil {
		b.logf("digest %-36s %s", b.o.workload, sum)
	}
}

// checkMachine verifies one finished machine outside the timed section: it
// simulated exactly the trace's reference count, an on-demand audit finds
// no violation, and its statistics digest is reproducible (and pinned at
// the default seed). Each failed machine counts once.
func (b *bench) checkMachine(d *digests, key string, sys *system.System, runErr error, wantRefs uint64) {
	b.attempted++
	if runErr != nil {
		b.fail("%s: %v", key, runErr)
		return
	}
	if got := sys.Refs(); got != wantRefs {
		b.fail("%s: simulated %d references, the trace has %d", key, got, wantRefs)
		return
	}
	if vs := audit.New(0).Audit(sys); len(vs) > 0 {
		b.fail("%s: audit found %d violations, first: %v", key, len(vs), vs[0])
		return
	}
	dg, err := machineDigest(sys)
	if err != nil {
		b.fail("%s: digest: %v", key, err)
		return
	}
	if why := b.checkDigest(d, key, dg); why != "" {
		b.fail("%s: %s", key, why)
	}
}

// simCounts reads a machine's simulated counts, summed over its CPUs.
func simCounts(sys *system.System) map[string]uint64 {
	c := map[string]uint64{}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		st := sys.Stats(cpu)
		c["core.l1_misses"] += st.L1.Overall().Misses()
		c["core.l2_misses"] += st.L2.Overall().Misses()
		c["core.synonyms"] += st.SynonymTotal() - st.Synonyms[core.SynNone]
		c["core.writebacks"] += st.WriteBacks
		c["core.coherence_to_l1"] += st.Coherence.Total()
		c["core.inclusion_invals"] += st.InclusionInvals
		c["tlb.misses"] += st.TLB.Misses
		c["writebuf.stalls"] += st.BufferStalls
		c["victim.hits"] += st.VictimHits
		c["rlt.evictions"] += st.RLTEvictions
	}
	for _, n := range sys.Bus().Stats().ByKind {
		c["bus.txns"] += n
	}
	return c
}

// zeroLayers sets every per-layer metric to 0, so a layer the workload
// never calls reads 0.
func (b *bench) zeroLayers() {
	for _, d := range perLayer() {
		b.set(d.name, 0)
	}
}

// setCount records a simulated count if the catalogue lists it (counts
// that are always zero on a machine are not listed); an unlisted count
// that is not zero is reported.
func (b *bench) setCount(name string, v uint64) {
	if _, ok := b.metrics[name]; !ok {
		if v != 0 {
			b.logf("note: unlisted count %s = %d", name, v)
		}
		return
	}
	b.set(name, float64(v))
}
