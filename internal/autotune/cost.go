package autotune

import (
	"repro/internal/addr"
	"repro/internal/system"
)

// addressBits is the modeled address width, virtual and physical (the
// paper's generation of machines; tags are computed against this width).
const addressBits = 32

// pidBits is the process-identifier width a PID-tagged V-cache adds to
// every tag (vcache packs the PID into 16 bits).
const pidBits = 16

// log2 is addr.MustLog2 for int operands.
func log2i(n int) uint { return addr.MustLog2(uint64(n)) }

// recencyBits is the per-line replacement state: rank bits for an
// assoc-way set (zero for direct-mapped, where there is nothing to rank).
func recencyBits(assoc int) uint64 {
	if assoc <= 1 {
		return 0
	}
	return uint64(log2i(assoc))
}

// SRAMBits is the static hardware cost of a configuration in bits of SRAM:
// data arrays, tag arrays with their per-line control state, the TLB, and
// the write buffer, summed over every CPU's hierarchy. The model counts
// the state this simulator actually maintains:
//
//   - L1 line: tag + valid + dirty + recency; a V-R first level tags
//     virtually (plus pidBits when PID-tagged) and adds the swapped-valid
//     and swapped-dirty bits of the paper's context-switch scheme; a
//     write-through first level keeps no dirty bit.
//   - L2 line: physical tag + valid + coherence state + recency, plus one
//     subentry per first-level block: inclusion, buffer, V-dirty, R-dirty
//     and the v-pointer (cache-select bit + L1 set + L1 way).
//   - TLB entry: virtual-page tag + physical frame number + valid +
//     recency.
//   - Write buffer (or the write-through queue): depth x (physical address
//   - one first-level block of data).
//   - Victim cache (when configured): entries x (physical block tag +
//     valid + one first-level block of data).
//   - Reverse-lookup synonym table (the "rlt" organization): entries x
//     (physical block tag + v-pointer + valid); in exchange the L2
//     subentries drop their per-subentry v-pointers.
//
// The model is deliberately static and deterministic — two calls on the
// same Config always agree — because it is the x-axis of the Pareto
// frontier.
func SRAMBits(cfg system.Config) uint64 {
	cfg = cfg.WithDefaults()
	var bits uint64

	// First level.
	l1 := cfg.L1
	l1Lines := uint64(l1.Sets() * l1.Assoc)
	l1Tag := uint64(addressBits) - uint64(l1.SetBits()) - uint64(l1.BlockBits())
	vr := cfg.Organization == system.VR || cfg.Organization == system.VRRLT
	if vr && cfg.PIDTagged {
		l1Tag += pidBits
	}
	l1Ctl := uint64(1) + recencyBits(l1.Assoc) // valid + recency
	if !cfg.L1WriteThrough {
		l1Ctl++ // dirty
	}
	if vr {
		l1Ctl += 2 // swapped-valid + swapped-dirty
	}
	bits += cfgLevelBits(l1Lines, l1Tag+l1Ctl, l1.Size)

	// Second level: tag store with coherence state and reverse-translation
	// subentries, shared structure across all three organizations.
	l2 := cfg.L2
	l2Lines := uint64(l2.Sets() * l2.Assoc)
	l2Tag := uint64(addressBits) - uint64(l2.SetBits()) - uint64(l2.BlockBits())
	subs := l2.Block / l1.Block
	vptr := uint64(1) + uint64(l1.SetBits()) + recencyBits(l1.Assoc) // cache select + set + way
	subBits := (4 + vptr) * subs                                     // inclusion, buffer, V-dirty, R-dirty + v-pointer
	if cfg.Organization == system.VRRLT {
		// The reverse-lookup table replaces the per-subentry v-pointers
		// with a small shared structure, costed below.
		subBits = 4 * subs
	}
	l2Ctl := uint64(1) + 1 + recencyBits(l2.Assoc) + subBits // valid + coherence state + recency + subentries
	bits += cfgLevelBits(l2Lines, l2Tag+l2Ctl, l2.Size)

	// Reverse-lookup synonym table: each entry tags a physical block and
	// holds one v-pointer plus a valid bit.
	if cfg.Organization == system.VRRLT {
		rltTag := uint64(addressBits) - uint64(l1.BlockBits())
		bits += uint64(cfg.RLTEntries) * (rltTag + vptr + 1)
	}

	// Victim cache: fully associative, one block of data plus physical tag,
	// valid bit, and FIFO state folded into the tag entry.
	if cfg.VictimEntries > 0 {
		vtag := uint64(addressBits) - uint64(l1.BlockBits())
		bits += uint64(cfg.VictimEntries) * (vtag + 1 + l1.Block*8)
	}

	// TLB.
	vpn := uint64(addressBits) - uint64(addr.MustLog2(cfg.PageSize))
	tlbSets := uint64(cfg.TLBEntries / cfg.TLBAssoc)
	tlbTag := vpn - uint64(addr.MustLog2(tlbSets))
	tlbEntry := tlbTag + vpn + 1 + recencyBits(cfg.TLBAssoc) // tag + frame + valid + recency
	bits += uint64(cfg.TLBEntries) * tlbEntry

	// Write buffer (write-back) or write-through queue: either way, depth
	// entries of one block plus its physical address.
	bits += uint64(cfg.WriteBufDepth) * (addressBits + l1.Block*8)

	return bits * uint64(cfg.CPUs)
}

// cfgLevelBits is one cache level's cost: lines x (tag + control) for the
// tag store plus 8 bits per byte of data.
func cfgLevelBits(lines, perLine, dataBytes uint64) uint64 {
	return lines*perLine + dataBytes*8
}
