package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/cycles"
	"repro/internal/probe"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
)

// timingParams is the timed experiments' standard configuration: the
// paper's contention model plus TLB and context-switch charges, so every
// mechanism the attribution tracks is exercised.
func timingParams() cycles.Params {
	p := cycles.ContentionParams()
	p.TLBMissPenalty = 8
	p.CtxSwitchCost = 10
	return p
}

// runAttributed runs one preset through one machine with the attribution
// profiler attached and returns the profiler and the engine it must match.
func runAttributed(t *testing.T, tc tracegen.Config, org system.Organization) (*telemetry.Attribution, *cycles.Engine) {
	t.Helper()
	pr := probe.New()
	eng := cycles.MustNew(timingParams(), pr)
	sc := system.Config{
		CPUs:         tc.CPUs,
		Organization: org,
		PageSize:     tc.PageSize,
		L1:           cache.Geometry{Size: 16 << 10, Block: 16, Assoc: 1},
		L2:           cache.Geometry{Size: 256 << 10, Block: 32, Assoc: 1},
		Probe:        pr,
		Cycles:       eng,
	}
	sys, err := system.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	attr := telemetry.NewAttribution(telemetry.AttrConfig{
		PageSize: sys.Config().PageSize,
		L2Sets:   sc.L2.Sets(),
		L2Block:  sc.L2.Block,
	})
	pr.AddSink(attr)
	if err := tc.SetupSharedMappings(sys.MMU()); err != nil {
		t.Fatal(err)
	}
	gen, err := tracegen.New(tc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(gen); err != nil {
		t.Fatal(err)
	}
	if err := pr.Close(); err != nil {
		t.Fatal(err)
	}
	return attr, eng
}

// TestReconcileMatrix is the acceptance criterion: per-mechanism cycle
// attribution reconciles exactly — to the cycle, per CPU — with the engine's
// clocks for every preset × organization × CPU count.
func TestReconcileMatrix(t *testing.T) {
	presets := []tracegen.Config{
		tracegen.PopsLike(), tracegen.ThorLike(), tracegen.AbaqusLike(),
	}
	orgs := []system.Organization{system.VR, system.RRInclusion, system.RRNoInclusion}
	cpuCounts := []int{1, 2, 4}
	for _, preset := range presets {
		for _, org := range orgs {
			for _, n := range cpuCounts {
				tc := preset.Scaled(0.01)
				tc.CPUs = n
				t.Run(fmt.Sprintf("%s/%s/%dcpu", tc.Name, org, n), func(t *testing.T) {
					attr, eng := runAttributed(t, tc, org)
					if err := attr.Reconcile(eng); err != nil {
						t.Fatal(err)
					}
					r := attr.Report()
					if r.Refs == 0 || r.TotalCycles == 0 {
						t.Fatalf("empty attribution: %d refs, %d cycles", r.Refs, r.TotalCycles)
					}
					if got, want := r.Tacc(), eng.Tacc(); got != want {
						t.Fatalf("Tacc %v, engine %v", got, want)
					}
				})
			}
		}
	}
}

// TestAttributionDeterministic proves two identical runs produce
// byte-identical attribution reports, in both the diffable text form and
// the JSON embedding.
func TestAttributionDeterministic(t *testing.T) {
	run := func() (text, js []byte) {
		tc := tracegen.PopsLike().Scaled(0.01)
		attr, eng := runAttributed(t, tc, system.VR)
		if err := attr.Reconcile(eng); err != nil {
			t.Fatal(err)
		}
		r := attr.Report()
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), j
	}
	t1, j1 := run()
	t2, j2 := run()
	if !bytes.Equal(t1, t2) {
		t.Fatalf("text reports differ:\n%s\n---\n%s", t1, t2)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("JSON reports differ:\n%s\n---\n%s", j1, j2)
	}
}
