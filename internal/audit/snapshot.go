package audit

import (
	"encoding/json"
	"fmt"
	"io"
)

// StatePrivate is the coherence-state label of an exclusively-held line;
// every other label is treated as shared. Snapshots carry states as strings
// so the dump stays readable and this package stays free of simulator
// dependencies.
const StatePrivate = "private"

// Snapshot is a point-in-time copy of every structure the invariants speak
// about. Producers emit lines in (set, way) order and subentries in sub
// order, so two snapshots of identical machine states are byte-identical
// JSON — the dump is diffable.
type Snapshot struct {
	Organization string         `json:"organization"`
	Protocol     string         `json:"protocol,omitempty"`
	Refs         uint64         `json:"references"`
	CPUs         []*CPUSnapshot `json:"cpus"`
}

// CPUSnapshot is one hierarchy's state.
type CPUSnapshot struct {
	CPU     int  `json:"cpu"`
	Virtual bool `json:"virtual"`
	// Inclusive marks the organizations whose L2 maintains inclusion over
	// the first level; false for the no-inclusion baseline, whose subentry
	// inclusion machinery must stay unused.
	Inclusive bool `json:"inclusive"`
	// LazyFlush marks the swapped-valid context-switch scheme: only then
	// may first-level lines carry the SV bit.
	LazyFlush bool   `json:"lazyFlush,omitempty"`
	L1Block   uint64 `json:"l1Block"`
	L2Block   uint64 `json:"l2Block"`
	// Geometry of the physically-addressed levels, for occupancy summaries
	// (the V-caches carry theirs in VCacheSnapshot). L1Sets/L1Ways are set
	// only by the no-inclusion baseline.
	L1Sets int `json:"l1Sets,omitempty"`
	L1Ways int `json:"l1Ways,omitempty"`
	RSets  int `json:"rSets,omitempty"`
	RWays  int `json:"rWays,omitempty"`

	VCaches     []VCacheSnapshot `json:"vcaches,omitempty"`
	L1Lines     []L1Line         `json:"l1,omitempty"` // no-inclusion baseline only
	RLines      []RLine          `json:"l2"`
	WriteBuffer []WBEntry        `json:"writeBuffer,omitempty"`
	TLB         []TLBEntry       `json:"tlb,omitempty"`
	// Victim holds the parked first-level victims when a victim cache is
	// configured; RLT the reverse-lookup synonym table's entries when that
	// strategy is active. HasVictim marks a configured (possibly empty)
	// victim cache, HasRLT an active reverse-lookup strategy, so the checks
	// can run on empty structures too.
	HasVictim bool          `json:"hasVictim,omitempty"`
	Victim    []VictimEntry `json:"victim,omitempty"`
	HasRLT    bool          `json:"hasRLT,omitempty"`
	RLT       []RLTEntry    `json:"rlt,omitempty"`
}

// VictimEntry is one block parked in the victim cache between the levels.
type VictimEntry struct {
	PA    uint64 `json:"pa"`
	Token uint64 `json:"token,omitempty"`
}

// RLTEntry is one reverse translation of the reverse-lookup synonym table:
// an L1-block-aligned physical address and the first-level location holding
// that block.
type RLTEntry struct {
	PA     uint64 `json:"pa"`
	VCache int    `json:"vcache,omitempty"`
	VSet   int    `json:"vset"`
	VWay   int    `json:"vway"`
}

// VCacheSnapshot is one first-level virtual cache (the unified cache, or
// one half of a split pair).
type VCacheSnapshot struct {
	Cache int     `json:"cache"` // 0 = unified or data, 1 = instruction
	Sets  int     `json:"sets"`
	Ways  int     `json:"ways"`
	Lines []VLine `json:"lines"`
}

// VLine is one present V-cache line with its Figure 3 control state and its
// r-pointer. Mapped/MMUPA carry the page tables' opinion of the line's
// virtual base (sub-block aligned), resolved by the producer so the checker
// needs no MMU access; they are meaningful only in the virtual organization.
type VLine struct {
	Set   int    `json:"set"`
	Way   int    `json:"way"`
	Dirty bool   `json:"dirty,omitempty"`
	SV    bool   `json:"sv,omitempty"`
	RSet  int    `json:"rset"`
	RWay  int    `json:"rway"`
	RSub  int    `json:"rsub"`
	PID   uint64 `json:"pid"`
	VBase uint64 `json:"vbase"`
	Token uint64 `json:"token,omitempty"`

	Mapped bool   `json:"mapped,omitempty"`
	MMUPA  uint64 `json:"mmuPA,omitempty"`
}

// L1Line is one first-level line of the no-inclusion baseline, which is
// physically addressed and carries its own coherence state.
type L1Line struct {
	Set   int    `json:"set"`
	Way   int    `json:"way"`
	Addr  uint64 `json:"addr"`
	State string `json:"state"`
	Dirty bool   `json:"dirty,omitempty"`
	Token uint64 `json:"token,omitempty"`
}

// RLine is one R-cache line: coherence state plus one subentry per
// first-level block.
type RLine struct {
	Set   int    `json:"set"`
	Way   int    `json:"way"`
	Addr  uint64 `json:"addr"`
	State string `json:"state"`
	Subs  []RSub `json:"subs"`
}

// RSub is one subentry's control state; Subs is always complete, so
// RLine.Subs[i].Sub == i.
type RSub struct {
	Sub       int    `json:"sub"`
	Inclusion bool   `json:"inclusion,omitempty"`
	Buffer    bool   `json:"buffer,omitempty"`
	VDirty    bool   `json:"vdirty,omitempty"`
	RDirty    bool   `json:"rdirty,omitempty"`
	VCache    int    `json:"vcache,omitempty"`
	VSet      int    `json:"vset,omitempty"`
	VWay      int    `json:"vway,omitempty"`
	Token     uint64 `json:"token,omitempty"`
}

// WBEntry is one buffered write-back, identified by the r-pointer of the
// subentry it belongs to.
type WBEntry struct {
	RSet  int    `json:"rset"`
	RWay  int    `json:"rway"`
	RSub  int    `json:"rsub"`
	Token uint64 `json:"token,omitempty"`
}

// TLBEntry is one resident translation; Mapped/MMUFrame carry the page
// tables' opinion, resolved by the producer.
type TLBEntry struct {
	PID      uint64 `json:"pid"`
	VPage    uint64 `json:"vpage"`
	Frame    uint64 `json:"frame"`
	Mapped   bool   `json:"mapped,omitempty"`
	MMUFrame uint64 `json:"mmuFrame,omitempty"`
}

// WriteJSON dumps the snapshot as indented JSON. Producers emit entries in
// deterministic order, so dumps of identical states diff clean.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ParseJSON reads a snapshot back (round-trip support for tooling). It
// rejects unknown keys, so a misspelled or foreign dump cannot pass as an
// empty machine, and what Validate rejects.
func ParseJSON(r io.Reader) (*Snapshot, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate rejects a decoded snapshot that Check cannot walk: one with a
// null CPU entry.
func (s *Snapshot) Validate() error {
	for i, cs := range s.CPUs {
		if cs == nil {
			return fmt.Errorf("audit: snapshot CPU entry %d is null", i)
		}
	}
	return nil
}
