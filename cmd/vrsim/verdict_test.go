package main

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/autotune"
	"repro/internal/cache"
	"repro/internal/jobs"
	"repro/internal/system"
	"repro/internal/tracegen"
)

// TestMachineVerdictsAgree sends each machine to every surface that can
// describe it — vrsim's run, a job submission, a one-point autotune grammar
// and system.New — and requires the same verdict from all of them. The
// grammar has no split axis, so split machines skip it.
func TestMachineVerdictsAgree(t *testing.T) {
	type machineRow struct {
		name  string
		tweak func(*options)
		legal bool
	}
	rows := []machineRow{
		{"paper default", func(*options) {}, true},
		{"L2 not larger than L1", func(o *options) { o.l1, o.l2 = "256K", "64K" }, false},
		{"rrnoincl split", func(o *options) { o.org, o.split = "rrnoincl", true }, false},
		{"split half too small", func(o *options) { o.l1, o.split = "16", true }, false},
		{"rlt entries on vr", func(o *options) { o.rltEntries = 16 }, false},
		{"rlt with 3 entries", func(o *options) { o.org, o.rltEntries = "rlt", 3 }, true},
		{"L2 block below L1 block", func(o *options) { o.b1, o.b2 = 32, 16 }, false},
		{"unknown org", func(o *options) { o.org = "ringbus" }, false},
	}
	for _, alias := range []string{"vr", "VR", "rr", "rrincl", "rrnoincl", "noincl", "rlt", "vr-wt", "rr-wt", "RR-WT"} {
		rows = append(rows, machineRow{"org " + alias, func(o *options) { o.org = alias }, true})
	}
	wl, err := tracegen.PresetByName("pops")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			o := goldenOptions("pops")
			o.scale = 0.001
			row.tweak(&o)
			l1, err := parseSize(o.l1)
			if err != nil {
				t.Fatal(err)
			}
			l2, err := parseSize(o.l2)
			if err != nil {
				t.Fatal(err)
			}
			verdicts := map[string]error{"vrsim": run(o, io.Discard, io.Discard)}

			spec, err := json.Marshal(jobs.MachineSpec{
				Org: o.org, L1Size: l1, L1Assoc: o.a1, L1Block: o.b1, Split: o.split,
				L2Size: l2, L2Assoc: o.a2, L2Block: o.b2, RLTEntries: o.rltEntries,
			})
			if err != nil {
				t.Fatal(err)
			}
			_, verdicts["jobs"] = jobs.DecodeConfig(fmt.Appendf(nil,
				`{"kind":"run","preset":"pops","scale":0.001,"machine":%s}`, spec))

			if !o.split {
				g := autotune.Grammar{
					Organizations: []string{o.org},
					L1Sizes:       []uint64{l1}, L1Assocs: []int{o.a1}, L1Block: o.b1,
					L2Sizes: []uint64{l2}, L2Assocs: []int{o.a2}, BlockRatios: []int{int(o.b2 / o.b1)},
					RLTEntries: []int{o.rltEntries},
				}
				cands, err := g.Expand(wl.CPUs, wl.PageSize)
				if err == nil && len(cands) != 1 {
					err = fmt.Errorf("expands to %d candidates", len(cands))
				}
				verdicts["grammar"] = err
			}

			org, writeThrough, err := system.ParseOrganization(o.org)
			if err == nil {
				_, err = system.New(system.Config{
					CPUs: wl.CPUs, PageSize: wl.PageSize, Organization: org,
					L1:    cache.Geometry{Size: l1, Block: o.b1, Assoc: o.a1},
					Split: o.split,
					L2:    cache.Geometry{Size: l2, Block: o.b2, Assoc: o.a2},

					L1WriteThrough: writeThrough,
					RLTEntries:     o.rltEntries,
				})
			}
			verdicts["system.New"] = err

			for surface, err := range verdicts {
				if (err == nil) != row.legal {
					t.Errorf("%s: legal=%v, want %v (%v)", surface, err == nil, row.legal, err)
				}
			}
		})
	}
}
