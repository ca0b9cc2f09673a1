package audit

import (
	"bytes"
	"strings"
	"testing"
)

// cleanCPU builds a small, fully consistent virtual-organization CPU
// snapshot: two resident V lines (one dirty), one buffered write-back, and
// one TLB entry.
func cleanCPU() *CPUSnapshot {
	return &CPUSnapshot{
		CPU: 0, Virtual: true, Inclusive: true, LazyFlush: true,
		L1Block: 16, L2Block: 32,
		VCaches: []VCacheSnapshot{{
			Cache: 0, Sets: 8, Ways: 1,
			Lines: []VLine{
				{Set: 2, Way: 0, Dirty: true, RSet: 0, RWay: 0, RSub: 0,
					PID: 1, VBase: 0x4020, Mapped: true, MMUPA: 0x1000},
				{Set: 3, Way: 0, SV: true, RSet: 1, RWay: 0, RSub: 0,
					PID: 1, VBase: 0x4030, Mapped: true, MMUPA: 0x2020},
			},
		}},
		RLines: []RLine{
			{Set: 0, Way: 0, Addr: 0x1000, State: "private", Subs: []RSub{
				{Sub: 0, Inclusion: true, VDirty: true, VCache: 0, VSet: 2, VWay: 0},
				{Sub: 1, Buffer: true, VDirty: true},
			}},
			{Set: 1, Way: 0, Addr: 0x2020, State: "shared", Subs: []RSub{
				{Sub: 0, Inclusion: true, VCache: 0, VSet: 3, VWay: 0},
				{Sub: 1},
			}},
		},
		WriteBuffer: []WBEntry{{RSet: 0, RWay: 0, RSub: 1, Token: 9}},
		TLB:         []TLBEntry{{PID: 1, VPage: 4, Frame: 1, Mapped: true, MMUFrame: 1}},
	}
}

func cleanSnapshot() *Snapshot {
	return &Snapshot{Organization: "VR", Protocol: "write-invalidate",
		Refs: 100, CPUs: []*CPUSnapshot{cleanCPU()}}
}

func TestCleanSnapshotHasNoViolations(t *testing.T) {
	if vs := cleanSnapshot().Check(); len(vs) != 0 {
		t.Fatalf("clean snapshot: %d violations: %v", len(vs), vs)
	}
}

// assertOnly checks that every violation is of the wanted invariant and at
// least one was found.
func assertOnly(t *testing.T, vs []Violation, want Invariant) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatalf("corruption not detected, want %v", want)
	}
	for _, v := range vs {
		if v.Invariant != want {
			t.Fatalf("flagged %v (%s), want only %v; all: %v", v.Invariant, v, want, vs)
		}
	}
}

// corruption breaks one invariant of cleanSnapshot.
type corruption struct {
	name    string
	corrupt func(s *Snapshot)
	want    Invariant
}

// corruptions lists one hand-made corruption per checked rule; both
// TestCorruptions and TestCorruptionViolationStrings run it.
var corruptions = []corruption{
	{"inclusion bit cleared", func(s *Snapshot) {
		// Clean child so no dirty-bit finding rides along.
		s.CPUs[0].RLines[1].Subs[0].Inclusion = false
	}, InvInclusion},
	{"parent line missing", func(s *Snapshot) {
		s.CPUs[0].RLines = s.CPUs[0].RLines[:1]
		s.CPUs[0].VCaches[0].Lines = s.CPUs[0].VCaches[0].Lines[:2]
		s.CPUs[0].VCaches[0].Lines[1].RSet = 5 // point into the void
	}, InvInclusion},
	{"v-pointer corrupted", func(s *Snapshot) {
		s.CPUs[0].RLines[1].Subs[0].VWay = 7
	}, InvReciprocity},
	{"r-pointer corrupted", func(s *Snapshot) {
		// A stale r-pointer breaks the round-trip from the true parent
		// (reciprocity); the forward pass may also see the inclusion
		// machinery disturbed, which the relaxed check below allows.
		s.CPUs[0].VCaches[0].Lines[1].RSub = 1
		s.CPUs[0].VCaches[0].Lines[1].MMUPA = 0x2030
	}, InvReciprocity},
	{"buffer bit cleared", func(s *Snapshot) {
		s.CPUs[0].RLines[0].Subs[1].Buffer = false
		s.CPUs[0].RLines[0].Subs[1].VDirty = false
	}, InvBufferBit},
	{"buffer bit without entry", func(s *Snapshot) {
		s.CPUs[0].WriteBuffer = nil
	}, InvBufferBit},
	{"inclusion and buffer bits both set", func(s *Snapshot) {
		s.CPUs[0].RLines[1].Subs[0].Buffer = true
		s.CPUs[0].RLines[1].Subs[0].VDirty = true
		s.CPUs[0].VCaches[0].Lines[1].Dirty = true
		s.CPUs[0].WriteBuffer = append(s.CPUs[0].WriteBuffer,
			WBEntry{RSet: 1, RWay: 0, RSub: 0})
		// The shared parent now looks modified; keep coherence clean.
		s.CPUs[0].RLines[1].State = "private"
	}, InvBufferBit},
	{"vdirty dropped", func(s *Snapshot) {
		s.CPUs[0].RLines[0].Subs[0].VDirty = false
	}, InvDirtyBits},
	{"vdirty dangling", func(s *Snapshot) {
		s.CPUs[0].RLines[1].Subs[1].VDirty = true
		s.CPUs[0].RLines[1].State = "private"
	}, InvDirtyBits},
	{"sv outside lazy flush", func(s *Snapshot) {
		s.CPUs[0].LazyFlush = false
	}, InvSwappedValid},
	{"duplicate physical block", func(s *Snapshot) {
		l := &s.CPUs[0].VCaches[0].Lines[1]
		l.RSet, l.RWay, l.RSub = 0, 0, 0
		l.MMUPA = 0x1000
		s.CPUs[0].RLines[1].Subs[0].Inclusion = false
		s.CPUs[0].RLines[0].Subs[0].VCache = 0
		// Both V lines now claim R[0.0.0]; reciprocity for one of them
		// cannot hold, so accept those findings alongside.
	}, InvUniqueCopy},
	{"dirty block shared", func(s *Snapshot) {
		s.CPUs[0].RLines[0].State = "shared"
	}, InvCoherence},
	{"translation mismatch", func(s *Snapshot) {
		s.CPUs[0].VCaches[0].Lines[0].MMUPA = 0x3000
	}, InvTranslation},
	{"translation unmapped", func(s *Snapshot) {
		s.CPUs[0].VCaches[0].Lines[0].Mapped = false
		s.CPUs[0].VCaches[0].Lines[0].MMUPA = 0
	}, InvTranslation},
	{"tlb frame stale", func(s *Snapshot) {
		s.CPUs[0].TLB[0].Frame = 99
	}, InvTLB},
	{"victim block resident at the first level", func(s *Snapshot) {
		s.CPUs[0].HasVictim = true
		s.CPUs[0].Victim = []VictimEntry{{PA: 0x1000}}
	}, InvVictimExclusive},
	{"victim block not contained", func(s *Snapshot) {
		s.CPUs[0].HasVictim = true
		s.CPUs[0].Victim = []VictimEntry{{PA: 0x8000}}
	}, InvVictimExclusive},
	{"victim token behind the buffered write-back", func(s *Snapshot) {
		s.CPUs[0].HasVictim = true
		s.CPUs[0].Victim = []VictimEntry{{PA: 0x1010, Token: 8}}
	}, InvVictimExclusive},
	{"rlt entry count", func(s *Snapshot) {
		s.CPUs[0].HasRLT = true
		s.CPUs[0].RLT = []RLTEntry{{PA: 0x1000, VSet: 2}}
	}, InvRLTReciprocity},
	{"rlt entry at an absent line", func(s *Snapshot) {
		s.CPUs[0].HasRLT = true
		s.CPUs[0].RLT = []RLTEntry{{PA: 0x1000, VSet: 2}, {PA: 0x2020, VSet: 5}}
	}, InvRLTReciprocity},
	{"rlt entry miskeyed", func(s *Snapshot) {
		s.CPUs[0].HasRLT = true
		s.CPUs[0].RLT = []RLTEntry{{PA: 0x1000, VSet: 2}, {PA: 0x2030, VSet: 3}}
	}, InvRLTReciprocity},
	{"rlt outside the V-R organization", func(s *Snapshot) {
		s.CPUs[0] = noInclusionCPU()
		s.CPUs[0].HasRLT = true
	}, InvRLTReciprocity},
	{"dirty first-level block shared", func(s *Snapshot) {
		s.CPUs[0] = noInclusionCPU()
		s.CPUs[0].L1Lines[0].State = "shared"
	}, InvCoherence},
	{"r-pointer sub out of range", func(s *Snapshot) {
		s.CPUs[0].VCaches[0].Lines[1].RSub = 5
	}, InvReciprocity},
	{"buffered but vdirty clear", func(s *Snapshot) {
		s.CPUs[0].RLines[0].Subs[1].VDirty = false
	}, InvDirtyBits},
	{"inclusion machinery in the no-inclusion baseline", func(s *Snapshot) {
		s.CPUs[0] = noInclusionCPU()
		s.CPUs[0].RLines[0].Subs[1].Inclusion = true
	}, InvInclusion},
	{"dirty second-level block shared", func(s *Snapshot) {
		s.CPUs[0] = noInclusionCPU()
		s.CPUs[0].RLines[0].Subs[0].RDirty = true
	}, InvCoherence},
	{"private block held by another CPU", func(s *Snapshot) {
		// CPU 1's first level privately holds a block CPU 0's R-cache
		// shares, and CPU 0's shared line is promoted to private too.
		b := noInclusionCPU()
		b.CPU = 1
		b.L1Lines[0].Addr = 0x2020
		s.CPUs = append(s.CPUs, b)
		s.CPUs[0].RLines[1].State = "private"
	}, InvCoherence},
}

// noInclusionCPU is a clean no-inclusion baseline CPU: one dirty private
// first-level line and one shared, clean second-level line.
func noInclusionCPU() *CPUSnapshot {
	return &CPUSnapshot{
		CPU: 0, Inclusive: false, L1Block: 16, L2Block: 32,
		L1Lines: []L1Line{{Set: 0, Way: 0, Addr: 0x5000, State: "private", Dirty: true}},
		RLines: []RLine{{Set: 0, Way: 0, Addr: 0x6000, State: "shared",
			Subs: []RSub{{Sub: 0}, {Sub: 1}}}},
		TLB: []TLBEntry{{PID: 1, VPage: 2, Frame: 3, Mapped: true, MMUFrame: 3}},
	}
}

func TestCorruptions(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := cleanSnapshot()
			tc.corrupt(s)
			vs := s.Check()
			if len(vs) == 0 {
				t.Fatalf("corruption not detected, want %v", tc.want)
			}
			found := false
			for _, v := range vs {
				if v.Invariant == tc.want {
					found = true
				}
			}
			if !found {
				t.Fatalf("want %v, got %v", tc.want, vs)
			}
			// Most corruptions must be flagged as exactly one invariant; a
			// duplicated block or stale r-pointer necessarily disturbs the
			// pointer/inclusion linkage too.
			if tc.name != "duplicate physical block" && tc.name != "r-pointer corrupted" {
				assertOnly(t, vs, tc.want)
			}
		})
	}
}

// TestCorruptionViolationStrings pins the rendered text of every violation
// the corruption table produces, in order: the location and detail strings
// are what -audit prints and a flight-recorder bundle stores.
func TestCorruptionViolationStrings(t *testing.T) {
	want := map[string][]string{
		"inclusion bit cleared": {
			"cpu 0: inclusion at V0[3.0]: parent R[1.0.0] inclusion bit clear",
			"cpu 0: inclusion at R-cache: 1 inclusion bits but 2 first-level lines",
		},
		"parent line missing": {
			"cpu 0: inclusion at V0[3.0]: parent R[5.0.0] not present",
			"cpu 0: inclusion at R-cache: 1 inclusion bits but 2 first-level lines",
		},
		"v-pointer corrupted": {
			"cpu 0: reciprocity at V0[3.0]: parent R[1.0.0] v-pointer V0[3.7] does not point back",
			"cpu 0: reciprocity at R[1.0.0]: v-pointer V0[3.7] to absent line",
		},
		"r-pointer corrupted": {
			"cpu 0: inclusion at V0[3.0]: parent R[1.0.1] inclusion bit clear",
			"cpu 0: reciprocity at R[1.0.0]: child r-pointer R[1.0.1] does not round-trip",
		},
		"buffer bit cleared": {
			"cpu 0: buffer-bit at write buffer: 0 buffer bits but 1 buffered entries",
			"cpu 0: buffer-bit at R[0.0.1]: buffered entry without a matching buffer bit",
		},
		"buffer bit without entry": {
			"cpu 0: buffer-bit at R[0.0.1]: buffer bit set but nothing buffered",
			"cpu 0: buffer-bit at write buffer: 1 buffer bits but 0 buffered entries",
		},
		"inclusion and buffer bits both set": {
			"cpu 0: buffer-bit at R[1.0.0]: inclusion and buffer bits both set",
		},
		"vdirty dropped": {
			"cpu 0: dirty-bits at V0[2.0]: dirty true but parent VDirty false",
		},
		"vdirty dangling": {
			"cpu 0: dirty-bits at R[1.0.1]: VDirty without child or buffer",
		},
		"sv outside lazy flush": {
			"cpu 0: swapped-valid at V0[3.0]: swapped-valid line outside the lazy-flush organization",
		},
		"duplicate physical block": {
			"cpu 0: reciprocity at V0[3.0]: parent R[0.0.0] v-pointer V0[2.0] does not point back",
			"cpu 0: dirty-bits at V0[3.0]: dirty false but parent VDirty true",
			"cpu 0: unique-copy at V0[3.0]: physical block 0x1000 also held by V0[2.0]",
			"cpu 0: inclusion at R-cache: 1 inclusion bits but 2 first-level lines",
		},
		"dirty block shared": {
			"cpu 0: coherence at R[0.0]: modified block 0x1000 held shared",
		},
		"translation mismatch": {
			"cpu 0: translation at V0[2.0]: vbase 0x4020 translates to 0x3000 but r-pointer says 0x1000",
		},
		"translation unmapped": {
			"cpu 0: translation at V0[2.0]: vbase 0x4020 pid 1 unmapped",
		},
		"tlb frame stale": {
			"cpu 0: tlb at TLB[pid 1 page 0x4]: cached frame 0x63 but page tables say 0x1",
		},
		"victim block resident at the first level": {
			"cpu 0: victim-exclusive at VC[0x1000]: parked block also resident at the first level (V0[2.0])",
		},
		"victim block not contained": {
			"cpu 0: victim-exclusive at VC[0x8000]: parked block not contained in the second level",
		},
		"victim token behind the buffered write-back": {
			"cpu 0: victim-exclusive at VC[0x1010]: parked token 8 but second level holds 9",
		},
		"rlt entry count": {
			"cpu 0: rlt-reciprocity at RLT: 1 table entries but 2 first-level lines",
		},
		"rlt entry at an absent line": {
			"cpu 0: rlt-reciprocity at RLT[0x2020]: entry points at absent line V0[5.0]",
		},
		"rlt entry miskeyed": {
			"cpu 0: rlt-reciprocity at RLT[0x2030]: entry keyed 0x2030 but its line holds 0x2020",
		},
		"rlt outside the V-R organization": {
			"cpu 0: rlt-reciprocity at RLT: reverse-lookup table present outside the V-R organization",
		},
		"dirty first-level block shared": {
			"cpu 0: coherence at L1[0.0]: dirty block 0x5000 held shared",
		},
		"r-pointer sub out of range": {
			"cpu 0: reciprocity at V0[3.0]: r-pointer sub 5 out of range (2 subentries)",
			"cpu 0: reciprocity at R[1.0.0]: child r-pointer R[1.0.5] does not round-trip",
		},
		"buffered but vdirty clear": {
			"cpu 0: dirty-bits at R[0.0.1]: buffered but VDirty clear",
		},
		"inclusion machinery in the no-inclusion baseline": {
			"cpu 0: inclusion at R[0.0.1]: inclusion machinery used in the no-inclusion baseline",
		},
		"dirty second-level block shared": {
			"cpu 0: coherence at R[0.0.0]: dirty block 0x6000 held shared",
		},
		"private block held by another CPU": {
			"machine: coherence at cpu 0 R[1.0]: block 0x2020 private here but also held by cpu 1 L1[0.0]",
			"machine: coherence at cpu 1 L1[0.0]: block 0x2020 private here but also held by cpu 0 R[1.0]",
		},
	}
	for _, tc := range corruptions {
		s := cleanSnapshot()
		tc.corrupt(s)
		var got []string
		for _, v := range s.Check() {
			got = append(got, v.String())
		}
		if w, ok := want[tc.name]; !ok {
			t.Errorf("%s: no pinned strings", tc.name)
		} else if strings.Join(got, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s: violations\n%s\nwant\n%s", tc.name,
				strings.Join(got, "\n"), strings.Join(w, "\n"))
		}
	}
	if len(want) != len(corruptions) {
		t.Errorf("%d pinned cases for %d corruptions", len(want), len(corruptions))
	}
}

func TestCrossCPUCoherence(t *testing.T) {
	two := func() *Snapshot {
		a, b := cleanCPU(), cleanCPU()
		b.CPU = 1
		// Only the shared line overlaps; drop CPU 1's private state.
		b.VCaches[0].Lines = b.VCaches[0].Lines[1:]
		b.RLines = b.RLines[1:]
		b.WriteBuffer = nil
		return &Snapshot{Organization: "VR", CPUs: []*CPUSnapshot{a, b}}
	}
	if vs := two().Check(); len(vs) != 0 {
		t.Fatalf("clean two-CPU snapshot: %v", vs)
	}
	s := two()
	s.CPUs[0].RLines[1].State = "private"
	vs := s.Check()
	assertOnly(t, vs, InvCoherence)
	if vs[0].CPU != -1 {
		t.Fatalf("cross-CPU violation attributed to cpu %d, want -1", vs[0].CPU)
	}
}

func TestNoInclusionBaseline(t *testing.T) {
	ni := func() *Snapshot {
		return &Snapshot{Organization: "RR(no incl)", CPUs: []*CPUSnapshot{{
			CPU: 0, Inclusive: false, L1Block: 16, L2Block: 32,
			L1Lines: []L1Line{{Set: 0, Way: 0, Addr: 0x1000, State: "private", Dirty: true}},
			RLines: []RLine{{Set: 0, Way: 0, Addr: 0x2000, State: "shared",
				Subs: []RSub{{Sub: 0}, {Sub: 1}}}},
			TLB: []TLBEntry{{PID: 1, VPage: 2, Frame: 3, Mapped: true, MMUFrame: 3}},
		}}}
	}
	if vs := ni().Check(); len(vs) != 0 {
		t.Fatalf("clean no-inclusion snapshot: %v", vs)
	}
	s := ni()
	s.CPUs[0].L1Lines[0].State = "shared"
	assertOnly(t, s.Check(), InvCoherence)
	s = ni()
	s.CPUs[0].RLines[0].Subs[1].Inclusion = true
	assertOnly(t, s.Check(), InvInclusion)
}

func TestAuditorTickPeriod(t *testing.T) {
	src := snapFunc(func() *Snapshot { return cleanSnapshot() })
	a := New(10)
	for i := 0; i < 35; i++ {
		a.Tick(src)
	}
	if got := a.Audits(); got != 3 {
		t.Fatalf("35 ticks at period 10: %d audits, want 3", got)
	}
	if a.Total() != 0 || len(a.Violations()) != 0 {
		t.Fatalf("clean source produced violations: %v", a.Violations())
	}
}

func TestAuditorNilSafe(t *testing.T) {
	var a *Auditor
	a.Tick(snapFunc(func() *Snapshot { t.Fatal("nil auditor snapshotted"); return nil }))
	if a.Audits() != 0 || a.Total() != 0 || a.Every() != 0 || a.Violations() != nil {
		t.Fatal("nil auditor reported activity")
	}
	if got := a.Audit(snapFunc(cleanSnapshot)); got != nil {
		t.Fatalf("nil auditor audit: %v", got)
	}
}

func TestAuditorRecordsAndCaps(t *testing.T) {
	bad := cleanSnapshot()
	bad.CPUs[0].RLines[0].State = "shared"
	a := New(0)
	var seen int
	a.OnAudit = func(snap *Snapshot, found []Violation) { seen = len(found) }
	found := a.Audit(snapFunc(func() *Snapshot { return bad }))
	if len(found) == 0 || seen != len(found) {
		t.Fatalf("audit found %d, OnAudit saw %d", len(found), seen)
	}
	if a.Audits() != 1 || a.Total() != uint64(len(found)) {
		t.Fatalf("counters: audits %d total %d", a.Audits(), a.Total())
	}
}

// snapFunc adapts a function to the Source interface.
type snapFunc func() *Snapshot

func (f snapFunc) AuditSnapshot() *Snapshot { return f() }

func TestSnapshotJSONDeterministicRoundTrip(t *testing.T) {
	s := cleanSnapshot()
	var a, b bytes.Buffer
	if err := s.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot JSON not deterministic")
	}
	back, err := ParseJSON(&a)
	if err != nil {
		t.Fatal(err)
	}
	if vs := back.Check(); len(vs) != 0 {
		t.Fatalf("round-tripped snapshot: %v", vs)
	}
}

// TestParseJSONRejectsNullCPU: a null CPU entry decodes to a nil pointer
// that Check would dereference.
func TestParseJSONRejectsNullCPU(t *testing.T) {
	in := `{"organization":"x","references":0,"cpus":[null]}`
	if s, err := ParseJSON(strings.NewReader(in)); err == nil {
		t.Fatalf("null CPU entry accepted: %+v", s)
	}
}

// TestParseJSONRejectsUnknownKeys: a dump whose "cpus" key is misspelled
// would otherwise parse as a machine of no CPUs, which Check reports clean.
func TestParseJSONRejectsUnknownKeys(t *testing.T) {
	in := `{"organization":"VR","references":5,"cpu":[{"cpu":0}]}`
	if s, err := ParseJSON(strings.NewReader(in)); err == nil {
		t.Fatalf("unknown key accepted as a snapshot of %d CPUs", len(s.CPUs))
	}
}

func TestInvariantNamesRoundTrip(t *testing.T) {
	for i := Invariant(0); i < NumInvariants; i++ {
		b, err := i.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Invariant
		if err := back.UnmarshalText(b); err != nil || back != i {
			t.Fatalf("%v: round-trip got %v, err %v", i, back, err)
		}
	}
}
