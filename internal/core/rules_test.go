package core_test

import (
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/system"
	"repro/internal/vm"
)

// The rules on which hierarchy options combine into a machine live in
// system.Config.Validate; these tests pin that each combination the
// hierarchies cannot model is still rejected there, by Validate and by
// system.New alike.

// ruleBase is the hierarchy shape of the package's rig (see baseOptions).
func ruleBase(org system.Organization) system.Config {
	return system.Config{
		Organization: org,
		L1:           cache.Geometry{Size: 128, Block: 16, Assoc: 1},
		L2:           cache.Geometry{Size: 512, Block: 32, Assoc: 2},
	}
}

// rejects requires Validate and New to refuse cfg with a message naming
// the broken rule.
func rejects(t *testing.T, what string, cfg system.Config, rule string) {
	t.Helper()
	err := cfg.Validate()
	if err == nil {
		t.Errorf("%s accepted", what)
		return
	}
	if !strings.Contains(err.Error(), rule) {
		t.Errorf("%s: rejected for %q, want the %q rule", what, err, rule)
	}
	if _, nerr := system.New(cfg); nerr == nil || nerr.Error() != err.Error() {
		t.Errorf("%s: New returned %v, Validate %v", what, nerr, err)
	}
}

func TestOptionValidation(t *testing.T) {
	// What only a hierarchy can check: its wiring to the machine, and that
	// memory is kept in first-level blocks.
	opts := core.Options{
		MMU: vm.MustNew(4096), Bus: bus.New(), Mem: memory.MustNew(16),
		L1:         cache.Geometry{Size: 128, Block: 16, Assoc: 1},
		L2:         cache.Geometry{Size: 512, Block: 32, Assoc: 2},
		TLBEntries: 64, TLBAssoc: 2, WriteBufDepth: 1, WriteBufLatency: 4,
	}
	if _, err := core.NewVR(opts); err != nil {
		t.Fatalf("baseline options rejected: %v", err)
	}
	noMMU := opts
	noMMU.MMU = nil
	if _, err := core.NewVR(noMMU); err == nil {
		t.Error("options without an MMU accepted")
	}
	coarse := opts
	coarse.L1.Block = 32
	if _, err := core.NewVR(coarse); err == nil {
		t.Error("L1 block coarser than the memory granularity accepted")
	}

	// Everything else is a machine rule.
	c := ruleBase(system.VR)
	c.L1.Size = 100
	rejects(t, "non-power-of-two L1", c, "L1: cache: size 100")
	c = ruleBase(system.VR)
	c.L2.Block = 8
	rejects(t, "L2 block below the L1 block", c, "L2 block (8) smaller than L1 block (16)")
	c = ruleBase(system.VR)
	c.Split, c.L1 = true, cache.Geometry{Size: 32, Block: 16, Assoc: 2}
	rejects(t, "split halves smaller than a set", c, "split L1 half")
	c = ruleBase(system.RRInclusion)
	c.EagerCtxFlush = true
	rejects(t, "RR with EagerCtxFlush", c, "apply only to the V-R organization")
	c = ruleBase(system.RRNoInclusion)
	c.Split, c.L1 = true, cache.Geometry{Size: 256, Block: 16, Assoc: 1}
	rejects(t, "no-inclusion with split", c, "models a unified L1")
}

func TestPIDTagsRejectedForRR(t *testing.T) {
	for _, org := range []system.Organization{system.RRInclusion, system.RRNoInclusion} {
		c := ruleBase(org)
		c.PIDTagged = true
		rejects(t, "PID tags on "+org.String(), c, "apply only to the V-R organization")
	}
	c := ruleBase(system.VR)
	c.PIDTagged, c.EagerCtxFlush = true, true
	rejects(t, "PIDTagged+EagerCtxFlush", c, "mutually exclusive")
}

func TestWriteUpdateRejectedForNoInclusion(t *testing.T) {
	c := ruleBase(system.RRNoInclusion)
	c.Protocol = core.WriteUpdate
	rejects(t, "write-update on the no-inclusion baseline", c, "write-invalidate protocol only")
}

func TestWriteThroughValidation(t *testing.T) {
	c := ruleBase(system.VR)
	c.L1WriteThrough, c.Protocol = true, core.WriteUpdate
	rejects(t, "write-through + write-update", c, "incompatible with the write-update protocol")
	c = ruleBase(system.VR)
	c.L1WriteThrough, c.EagerCtxFlush = true, true
	rejects(t, "write-through + eager flush", c, "nothing to flush eagerly")
}
