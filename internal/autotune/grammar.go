// Package autotune searches the two-level hierarchy design space. A
// declarative grammar expands to thousands of candidate machine
// configurations; the workload is generated once per search into memory;
// a 2D scheduler measures the candidates cheaply in cells of one
// configuration by one approximate time shard (a checkpoint window with
// warm-up), every cell of a shard starting from one shared snapshot of the
// page tables at its window; dominated candidates are pruned from the
// windowed probe measurements with a safety margin; and the surviving
// frontier is re-measured exactly on the full trace, so pruning can change
// the cost of the search but never its answer. The result is a deterministic Pareto frontier of measured average
// access time (internal/cycles) against total SRAM bits (the static cost
// model in cost.go).
package autotune

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/system"
)

// Grammar declares the design space as independent axes; Expand takes the
// cross product and keeps the combinations that form a legal machine. Empty
// axes default to a single paper-typical value, so the zero grammar is
// small but valid.
type Grammar struct {
	// Organizations are organization names, the ones vrsim's -org takes
	// (see system.ParseOrganization). Default {"vr"}.
	Organizations []string `json:"organizations"`

	L1Sizes  []uint64 `json:"l1Sizes"`  // bytes; default {16K}
	L1Assocs []int    `json:"l1Assocs"` // default {1}
	L1Block  uint64   `json:"l1Block"`  // bytes; default 16

	L2Sizes  []uint64 `json:"l2Sizes"`  // bytes; default {256K}
	L2Assocs []int    `json:"l2Assocs"` // default {1}

	// BlockRatios are k = L2 block / L1 block (the paper's subentries per
	// line); default {2}.
	BlockRatios []int `json:"blockRatios"`

	WriteBufDepths []int `json:"writeBufDepths"` // default {1}

	TLBEntries []int `json:"tlbEntries"` // default {64}
	TLBAssocs  []int `json:"tlbAssocs"`  // default {2}

	// Policies are replacement policy names (see cache.ParsePolicy)
	// applied to both levels. Default {"lru"}.
	Policies []string `json:"policies"`

	// VictimEntries are victim-cache sizes in blocks; 0 means no victim
	// cache. Default {0}. The axis applies to every organization.
	VictimEntries []int `json:"victimEntries"`

	// RLTEntries are reverse-lookup synonym-table sizes for the "rlt"
	// organization; 0 lets the system pick its default (half the
	// first-level line count). Non-zero values are silently dropped for
	// organizations without an RLT, so mixing "vr" and "rlt" in one
	// grammar expands cleanly.
	RLTEntries []int `json:"rltEntries"`
}

// Candidate is one expanded configuration: the machine to build, its
// deterministic label, and its static cost.
type Candidate struct {
	Label  string
	Config system.Config
	Bits   uint64 // total SRAM bits (see SRAMBits)
}

// Label is a machine's deterministic label, built from the organization
// and policy names it was written with and from its configuration. Every
// candidate carries one, and so does every job machine given no label.
func Label(org, policy string, cfg system.Config) string {
	label := fmt.Sprintf("%s/%s/L1=%s/L2=%s/wb=%d/tlb=%dx%d",
		org, policy, cfg.L1, cfg.L2, cfg.WriteBufDepth, cfg.TLBEntries, cfg.TLBAssoc)
	if cfg.VictimEntries != 0 {
		label += fmt.Sprintf("/vc=%d", cfg.VictimEntries)
	}
	if cfg.RLTEntries != 0 {
		label += fmt.Sprintf("/rlt=%d", cfg.RLTEntries)
	}
	if cfg.Split {
		label += "/split"
	}
	return label
}

func orDefaultU64(vs []uint64, d uint64) []uint64 {
	if len(vs) == 0 {
		return []uint64{d}
	}
	return vs
}

func orDefaultInt(vs []int, d int) []int {
	if len(vs) == 0 {
		return []int{d}
	}
	return vs
}

func orDefaultStr(vs []string, d string) []string {
	if len(vs) == 0 {
		return []string{d}
	}
	return vs
}

// Expand takes the grammar's cross product for a machine with cpus
// processors and pageSize-byte pages, keeping exactly the combinations
// system.Config.Validate accepts. Candidates come out in deterministic
// axis-major order with unique labels; expanding the same grammar twice
// yields the identical slice.
func (g Grammar) Expand(cpus int, pageSize uint64) ([]Candidate, error) {
	orgs := orDefaultStr(g.Organizations, "vr")
	l1Sizes := orDefaultU64(g.L1Sizes, 16<<10)
	l1Assocs := orDefaultInt(g.L1Assocs, 1)
	l1Block := g.L1Block
	if l1Block == 0 {
		l1Block = 16
	}
	l2Sizes := orDefaultU64(g.L2Sizes, 256<<10)
	l2Assocs := orDefaultInt(g.L2Assocs, 1)
	ratios := orDefaultInt(g.BlockRatios, 2)
	wbDepths := orDefaultInt(g.WriteBufDepths, 1)
	tlbEntries := orDefaultInt(g.TLBEntries, 64)
	tlbAssocs := orDefaultInt(g.TLBAssocs, 2)
	policies := orDefaultStr(g.Policies, "lru")
	victims := orDefaultInt(g.VictimEntries, 0)
	rltSizes := orDefaultInt(g.RLTEntries, 0)
	for _, k := range ratios {
		// The axis spells B2 = k·B1; a k that is no power of two is a
		// malformed grammar, not a machine to drop.
		if k < 1 || !addr.IsPow2(uint64(k)) {
			return nil, fmt.Errorf("autotune: block ratio %d is not a positive power of two", k)
		}
	}

	var out []Candidate
	for _, orgTok := range orgs {
		org, wt, err := system.ParseOrganization(orgTok)
		if err != nil {
			return nil, fmt.Errorf("autotune: %w", err)
		}
		for _, pol := range policies {
			p, err := cache.ParsePolicy(pol)
			if err != nil {
				return nil, fmt.Errorf("autotune: %w", err)
			}
			for _, l1s := range l1Sizes {
				for _, l1a := range l1Assocs {
					for _, k := range ratios {
						for _, l2s := range l2Sizes {
							for _, l2a := range l2Assocs {
								for _, wb := range wbDepths {
									for _, te := range tlbEntries {
										for _, ta := range tlbAssocs {
											for _, vc := range victims {
												for _, re := range rltSizes {
													if org != system.VRRLT && re != 0 {
														// The RLT axis only exists on the
														// rlt organization; drop rather than
														// error so mixed grammars expand.
														continue
													}
													cfg := system.Config{
														CPUs:           cpus,
														Organization:   org,
														PageSize:       pageSize,
														L1:             cache.Geometry{Size: l1s, Block: l1Block, Assoc: l1a},
														L2:             cache.Geometry{Size: l2s, Block: l1Block * uint64(k), Assoc: l2a},
														TLBEntries:     te,
														TLBAssoc:       ta,
														WriteBufDepth:  wb,
														L1Policy:       p,
														L2Policy:       p,
														L1WriteThrough: wt,
														VictimEntries:  vc,
														RLTEntries:     re,
													}
													if cfg.Validate() != nil {
														continue
													}
													out = append(out, Candidate{Label: Label(orgTok, pol, cfg), Config: cfg})
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for i := range out {
		out[i].Bits = SRAMBits(out[i].Config)
	}
	return out, nil
}

// PaperGrammar is the default search space: the paper's Tables 6-11 axes
// widened to a four-digit candidate count (3 organizations x 2 policies x 3
// L1 sizes x 2 L1 assocs x 2 ratios x 3 L2 sizes x 2 L2 assocs x 2 buffer
// depths x 2 TLB shapes = 1728 legal candidates).
func PaperGrammar() Grammar {
	return Grammar{
		Organizations:  []string{"vr", "rr", "rrnoincl"},
		L1Sizes:        []uint64{4 << 10, 8 << 10, 16 << 10},
		L1Assocs:       []int{1, 2},
		L2Sizes:        []uint64{128 << 10, 256 << 10, 512 << 10},
		L2Assocs:       []int{1, 2},
		BlockRatios:    []int{2, 4},
		WriteBufDepths: []int{1, 4},
		TLBEntries:     []int{64, 128},
		Policies:       []string{"lru", "fifo"},
	}
}
