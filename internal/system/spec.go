package system

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/rlt"
	"repro/internal/writebuf"
)

// orgTokens is the one table of organization names. vrsim's -org, a job
// spec's "org" and a grammar's "organizations" all resolve through
// ParseOrganization; the -wt names select the write-through first level.
var orgTokens = []struct {
	name         string
	org          Organization
	writeThrough bool
}{
	{"vr", VR, false},
	{"rr", RRInclusion, false},
	{"rrincl", RRInclusion, false},
	{"rrnoincl", RRNoInclusion, false},
	{"noincl", RRNoInclusion, false},
	{"rlt", VRRLT, false},
	{"vr-wt", VR, true},
	{"rr-wt", RRInclusion, true},
}

// ParseOrganization resolves an organization name, in any case, to the
// organization and whether its first level is write-through.
func ParseOrganization(s string) (org Organization, writeThrough bool, err error) {
	names := make([]string, len(orgTokens))
	for i, t := range orgTokens {
		if strings.EqualFold(s, t.name) {
			return t.org, t.writeThrough, nil
		}
		names[i] = t.name
	}
	return 0, false, fmt.Errorf("unknown organization %q (%s)", s, strings.Join(names, ", "))
}

// Validate reports why c is not a machine New can build, or nil. It is the
// one place machine legality is decided: New asks it first, and vrsim, job
// admission and grammar expansion report what it says. Where a component
// owns a shape rule (cache geometry, page size, write buffer,
// reverse-lookup table) Validate asks the component.
func (c Config) Validate() error {
	c.applyDefaults()
	if c.CPUs < 1 || c.CPUs > 255 {
		return fmt.Errorf("system: %d CPUs out of range", c.CPUs)
	}
	if _, err := addr.NewPageGeom(c.PageSize); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	virtual := c.Organization == VR || c.Organization == VRRLT
	if !virtual && c.Organization != RRInclusion && c.Organization != RRNoInclusion {
		return fmt.Errorf("system: unknown organization %d", c.Organization)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("system: L1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("system: L2: %w", err)
	}
	// The paper's second level is larger than the first, and its blocks
	// hold k >= 1 first-level blocks as subentries.
	if c.L2.Size <= c.L1.Size {
		return fmt.Errorf("system: L2 (%v) is not larger than L1 (%v)", c.L2, c.L1)
	}
	if c.L2.Block < c.L1.Block {
		return fmt.Errorf("system: L2 block (%d) smaller than L1 block (%d)", c.L2.Block, c.L1.Block)
	}
	if c.Split {
		if c.Organization == RRNoInclusion {
			return errors.New("system: the no-inclusion baseline models a unified L1")
		}
		half := c.L1
		half.Size /= 2
		if err := half.Validate(); err != nil {
			return fmt.Errorf("system: split L1 half: %w", err)
		}
	}
	switch {
	case (c.EagerCtxFlush || c.PIDTagged) && !virtual:
		return errors.New("system: EagerCtxFlush and PIDTagged apply only to the V-R organization")
	case c.PIDTagged && c.EagerCtxFlush:
		return errors.New("system: PIDTagged and EagerCtxFlush are mutually exclusive")
	case c.L1WriteThrough && c.EagerCtxFlush:
		return errors.New("system: a write-through first level has nothing to flush eagerly")
	case c.L1WriteThrough && c.Protocol == core.WriteUpdate:
		return errors.New("system: L1WriteThrough is incompatible with the write-update protocol")
	case c.Organization == RRNoInclusion && c.Protocol != core.WriteInvalidate:
		return errors.New("system: the no-inclusion baseline models the write-invalidate protocol only")
	case c.VictimEntries < 0:
		return fmt.Errorf("system: VictimEntries must be non-negative, got %d", c.VictimEntries)
	}
	// A TLB is a cache of TLBEntries one-byte blocks (see tlb.New), so its
	// shape rule is that geometry's. Building one here instead would seed
	// its tag store's random source, which costs more than all the other
	// checks together and is paid on every candidate a grammar expands.
	if err := (cache.Geometry{Size: uint64(c.TLBEntries), Block: 1, Assoc: c.TLBAssoc}).Validate(); err != nil {
		return fmt.Errorf("system: TLB %dx%d: %w", c.TLBEntries, c.TLBAssoc, err)
	}
	if _, err := writebuf.New(c.WriteBufDepth, c.WriteBufLatency); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if c.Organization != VRRLT {
		if c.RLTEntries != 0 || c.RLTAssoc != 0 {
			return errors.New("system: RLTEntries/RLTAssoc require the VRRLT organization")
		}
		return nil
	}
	if _, err := rlt.New(c.rltEntries(), c.RLTAssoc, c.L1.Block); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	return nil
}

// rltEntries is the size of the VRRLT organization's reverse-lookup table:
// RLTEntries, or by default the largest power of two no bigger than half
// the first level's line count — small enough that capacity evictions
// actually occur (the trade-off stays visible), and a legal set count for
// any associativity.
func (c *Config) rltEntries() int {
	if c.RLTEntries != 0 {
		return c.RLTEntries
	}
	lines := int(c.L1.Size / c.L1.Block)
	n := 1
	for n*2 <= lines/2 {
		n *= 2
	}
	return n
}
