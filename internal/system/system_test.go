package system

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/trace"
)

// smallConfig is a tiny machine that checks the oracle on every read and
// audits every invariant after every reference; tests that drive it assert
// auditClean.
func smallConfig(org Organization) Config {
	return Config{
		CPUs:         2,
		Organization: org,
		PageSize:     64,
		L1:           cache.Geometry{Size: 128, Block: 16, Assoc: 1},
		L2:           cache.Geometry{Size: 512, Block: 32, Assoc: 2},
		CheckOracle:  true,
		Audit:        audit.New(1),
	}
}

// auditClean fails t if s's auditor ran no audit or found any violation.
func auditClean(t *testing.T, s *System) {
	t.Helper()
	a := s.Auditor()
	if a.Audits() == 0 {
		t.Error("auditor never ran")
	}
	if a.Total() > 0 {
		t.Errorf("audit found %d violation(s): %v", a.Total(), a.Violations())
	}
}

func TestNewAllOrganizations(t *testing.T) {
	for _, org := range []Organization{VR, RRInclusion, RRNoInclusion} {
		s, err := New(smallConfig(org))
		if err != nil {
			t.Fatalf("%v: %v", org, err)
		}
		if s.CPUs() != 2 {
			t.Errorf("%v: CPUs = %d", org, s.CPUs())
		}
	}
}

func TestNewErrors(t *testing.T) {
	cfg := smallConfig(VR)
	cfg.CPUs = 300
	if _, err := New(cfg); err == nil {
		t.Error("300 CPUs accepted")
	}
	cfg = smallConfig(VR)
	cfg.Organization = Organization(99)
	if _, err := New(cfg); err == nil {
		t.Error("unknown organization accepted")
	}
	cfg = smallConfig(VR)
	cfg.L1.Size = 100
	if _, err := New(cfg); err == nil {
		t.Error("bad L1 accepted")
	}
	cfg = smallConfig(VR)
	cfg.PageSize = 1000
	if _, err := New(cfg); err == nil {
		t.Error("bad page size accepted")
	}
}

func TestOrganizationString(t *testing.T) {
	if VR.String() != "VR" || RRInclusion.String() != "RR(incl)" ||
		RRNoInclusion.String() != "RR(no incl)" {
		t.Error("labels wrong")
	}
	if !strings.Contains(Organization(9).String(), "9") {
		t.Error("unknown organization should render its number")
	}
}

func TestRunSmallTrace(t *testing.T) {
	s := MustNew(smallConfig(VR))
	refs := []trace.Ref{
		{CPU: 0, Kind: trace.IFetch, PID: 1, Addr: 0x000},
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x100},
		{CPU: 0, Kind: trace.Write, PID: 1, Addr: 0x100},
		{CPU: 1, Kind: trace.Read, PID: 2, Addr: 0x100},
		{CPU: 0, Kind: trace.CtxSwitch, PID: 3},
		{CPU: 0, Kind: trace.Read, PID: 3, Addr: 0x100},
	}
	if err := s.Run(trace.NewSliceReader(refs)); err != nil {
		t.Fatal(err)
	}
	if s.Refs() != 5 {
		t.Errorf("Refs = %d, want 5 (context switch excluded)", s.Refs())
	}
	if s.Stats(0).CtxSwitches != 1 {
		t.Error("context switch not applied")
	}
	auditClean(t, s)
}

func TestRunRejectsUnknownCPU(t *testing.T) {
	s := MustNew(smallConfig(VR))
	refs := []trace.Ref{{CPU: 5, Kind: trace.Read, PID: 1, Addr: 0}}
	if err := s.Run(trace.NewSliceReader(refs)); err == nil {
		t.Fatal("record for CPU 5 accepted on 2-CPU machine")
	}
}

func TestSharedWritesAcrossCPUs(t *testing.T) {
	s := MustNew(smallConfig(VR))
	seg := s.MMU().NewSegment(64)
	if err := s.MMU().MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := s.MMU().MapShared(2, 0x080, seg); err != nil {
		t.Fatal(err)
	}
	refs := []trace.Ref{
		{CPU: 0, Kind: trace.Write, PID: 1, Addr: 0x040},
		{CPU: 1, Kind: trace.Read, PID: 2, Addr: 0x080},
		{CPU: 1, Kind: trace.Write, PID: 2, Addr: 0x080},
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x040},
	}
	// The oracle inside Run verifies cross-CPU propagation.
	if err := s.Run(trace.NewSliceReader(refs)); err != nil {
		t.Fatal(err)
	}
	if s.Bus().Stats().Total() == 0 {
		t.Error("sharing generated no bus traffic")
	}
	auditClean(t, s)
}

func TestAggregate(t *testing.T) {
	s := MustNew(smallConfig(VR))
	refs := []trace.Ref{
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x000},
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x004}, // L1 hit
		{CPU: 1, Kind: trace.Write, PID: 2, Addr: 0x000},
		{CPU: 1, Kind: trace.Write, PID: 2, Addr: 0x004}, // L1 hit
		{CPU: 0, Kind: trace.IFetch, PID: 1, Addr: 0x200},
	}
	if err := s.Run(trace.NewSliceReader(refs)); err != nil {
		t.Fatal(err)
	}
	a := s.Aggregate()
	if a.H1 != 0.4 {
		t.Errorf("H1 = %v, want 0.4", a.H1)
	}
	if a.L1.DataRead != 0.5 || a.L1.DataWrite != 0.5 || a.L1.Instr != 0 {
		t.Errorf("per-kind L1 = %+v", a.L1)
	}
	if a.H2 != a.L2.Overall {
		t.Error("H2 alias broken")
	}
	auditClean(t, s)
}

func TestCoherenceMessages(t *testing.T) {
	s := MustNew(smallConfig(RRNoInclusion))
	refs := []trace.Ref{
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x000},
		{CPU: 1, Kind: trace.Read, PID: 2, Addr: 0x100},
		{CPU: 1, Kind: trace.Read, PID: 2, Addr: 0x200},
	}
	if err := s.Run(trace.NewSliceReader(refs)); err != nil {
		t.Fatal(err)
	}
	msgs := s.CoherenceMessages()
	if len(msgs) != 2 {
		t.Fatalf("msgs = %v", msgs)
	}
	if msgs[0] != 2 { // two remote misses probed cpu0's L1
		t.Errorf("cpu0 probes = %d, want 2", msgs[0])
	}
	if msgs[1] != 1 {
		t.Errorf("cpu1 probes = %d, want 1", msgs[1])
	}
	auditClean(t, s)
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{
		L1: cache.Geometry{Size: 128, Block: 16, Assoc: 1},
		L2: cache.Geometry{Size: 512, Block: 32, Assoc: 2},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.CPUs() != 1 {
		t.Errorf("default CPUs = %d", s.CPUs())
	}
	if s.MMU().PageGeom().Size() != 4096 {
		t.Errorf("default page size = %d", s.MMU().PageGeom().Size())
	}
}

func TestStatsAccessors(t *testing.T) {
	s := MustNew(smallConfig(VR))
	if s.CPU(0) == nil || s.Stats(1) == nil || s.Memory() == nil {
		t.Error("accessors returned nil")
	}
}

func TestResetStats(t *testing.T) {
	s := MustNew(smallConfig(VR))
	refs := []trace.Ref{
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x000},
		{CPU: 1, Kind: trace.Write, PID: 2, Addr: 0x100},
	}
	if err := s.Run(trace.NewSliceReader(refs)); err != nil {
		t.Fatal(err)
	}
	if s.Refs() == 0 || s.Stats(0).L1.Overall().Total == 0 {
		t.Fatal("precondition: stats populated")
	}
	s.ResetStats()
	if s.Refs() != 0 {
		t.Error("refs not reset")
	}
	if s.Stats(0).L1.Overall().Total != 0 || s.Stats(1).L1.Overall().Total != 0 {
		t.Error("per-CPU stats not reset")
	}
	if s.Bus().Stats().Total() != 0 || s.Memory().Stats().BlockReads != 0 {
		t.Error("bus/memory stats not reset")
	}
	// Cache contents survive: the warmed block still hits.
	res, err := s.Apply(trace.Ref{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.L1Hit {
		t.Error("reset evicted cache contents")
	}
	if s.Stats(0).L1.Overall().Total != 1 {
		t.Error("post-reset accounting wrong")
	}
	auditClean(t, s)
}
