package tracegen

import (
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
)

func tinyConfig() Config {
	return Config{
		Name:              "tiny",
		CPUs:              2,
		PageSize:          4096,
		TotalRefs:         20_000,
		Seed:              42,
		InstrFrac:         0.5,
		ReadFrac:          0.4,
		WriteFrac:         0.1,
		ProcsPerCPU:       2,
		CtxSwitchInterval: 1000,
		CallProb:          0.01,
		SharedPages:       4,
		SharedFrac:        0.1,
		SharedWriteFrac:   0.2,
	}
}

func TestGeneratesRequestedCount(t *testing.T) {
	g := MustNew(tinyConfig())
	c, err := trace.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalRefs != 20_000 {
		t.Fatalf("TotalRefs = %d", c.TotalRefs)
	}
	if c.CPUs != 2 {
		t.Errorf("CPUs = %d", c.CPUs)
	}
	if c.CtxSwitches == 0 {
		t.Error("no context switches generated")
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := trace.ReadAll(MustNew(tinyConfig()))
	b, _ := trace.ReadAll(MustNew(tinyConfig()))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := tinyConfig()
	a, _ := trace.ReadAll(MustNew(cfg))
	cfg.Seed = 43
	b, _ := trace.ReadAll(MustNew(cfg))
	same := 0
	for i := range a {
		if i < len(b) && a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestReferenceMix(t *testing.T) {
	cfg := tinyConfig()
	cfg.TotalRefs = 200_000
	cfg.SharedFrac = 0 // sharing perturbs the read/write split
	g := MustNew(cfg)
	c, err := trace.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	instr := float64(c.Instrs) / float64(c.TotalRefs)
	// Burst writes inflate the write share beyond the mix fraction, and
	// instruction share lands slightly under the configured value.
	if math.Abs(instr-0.5) > 0.05 {
		t.Errorf("instruction fraction = %v, want ~0.5", instr)
	}
	writes := float64(c.Writes) / float64(c.TotalRefs)
	if writes < 0.1 || writes > 0.2 {
		t.Errorf("write fraction = %v, want bursts to lift it above 0.1", writes)
	}
}

func TestCallBurstsMatchTable1Shape(t *testing.T) {
	cfg := tinyConfig()
	cfg.TotalRefs = 300_000
	g := MustNew(cfg)
	if _, err := trace.Summarize(g); err != nil {
		t.Fatal(err)
	}
	h := g.WritesPerCall()
	if h.Total() == 0 {
		t.Fatal("no calls recorded")
	}
	// Table 1: 6 and 9 dominate; nothing below 6 in practice; 16 is rare.
	if h.Count(6) == 0 || h.Count(9) == 0 {
		t.Error("dominant burst sizes missing")
	}
	if h.Count(6) < h.Count(10) {
		t.Error("burst size 6 should dominate 10")
	}
	if h.Count(3) != 0 {
		t.Error("unexpected burst size 3 with default weights")
	}
	mean := h.Mean()
	if mean < 6 || mean > 12 {
		t.Errorf("mean burst = %v, want 6..12", mean)
	}
}

func TestContextSwitchCadence(t *testing.T) {
	cfg := tinyConfig()
	cfg.CtxSwitchInterval = 500
	cfg.TotalRefs = 10_000
	g := MustNew(cfg)
	c, _ := trace.Summarize(g)
	// 5000 refs per CPU / 500 = ~10 switches per CPU.
	if c.CtxSwitches < 15 || c.CtxSwitches > 25 {
		t.Errorf("CtxSwitches = %d, want ~20", c.CtxSwitches)
	}
	// PIDs rotate among each CPU's processes.
	if c.DistinctPIDs != 4 {
		t.Errorf("DistinctPIDs = %d, want 4", c.DistinctPIDs)
	}
}

func TestNoSwitchesWithoutInterval(t *testing.T) {
	cfg := tinyConfig()
	cfg.CtxSwitchInterval = 0
	g := MustNew(cfg)
	c, _ := trace.Summarize(g)
	if c.CtxSwitches != 0 {
		t.Errorf("CtxSwitches = %d, want 0", c.CtxSwitches)
	}
}

// TestMaxRecordsBounds holds MaxRecords to the generators' output: never
// below the records emitted, and above them by fewer than two per CPU (a
// CPU may end the trace with a switch pending).
func TestMaxRecordsBounds(t *testing.T) {
	noSwitch := tinyConfig()
	noSwitch.CtxSwitchInterval = 0
	oneProc := tinyConfig()
	oneProc.ProcsPerCPU = 1
	for _, cfg := range []Config{tinyConfig(), noSwitch, oneProc,
		PopsLike().Scaled(0.002), ThorLike().Scaled(0.002), AbaqusLike().Scaled(0.01)} {
		refs, err := trace.ReadAll(MustNew(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if bound := cfg.MaxRecords(); len(refs) > bound || bound-len(refs) >= 2*cfg.CPUs {
			t.Errorf("%s (interval %d): %d records, MaxRecords %d", cfg.Name, cfg.CtxSwitchInterval, len(refs), bound)
		}
	}
}

func TestSharedMappingsCreateSynonyms(t *testing.T) {
	cfg := tinyConfig()
	mmu := vm.MustNew(cfg.PageSize)
	if err := cfg.SetupSharedMappings(mmu); err != nil {
		t.Fatal(err)
	}
	// All four processes see the same physical page under different VAs.
	cfgD := cfg
	cfgD.applyDefaults()
	pa1 := mmu.Translate(cfgD.PIDFor(0, 0), cfgD.SharedBase(cfgD.PIDFor(0, 0)))
	pa2 := mmu.Translate(cfgD.PIDFor(1, 1), cfgD.SharedBase(cfgD.PIDFor(1, 1)))
	if pa1 != pa2 {
		t.Fatal("shared segment not aliased across processes")
	}
	if cfgD.SharedBase(1) == cfgD.SharedBase(2) {
		t.Fatal("shared bases must differ per process")
	}
}

func TestSetupSharedMappingsNoop(t *testing.T) {
	cfg := tinyConfig()
	cfg.SharedPages = 0
	mmu := vm.MustNew(cfg.PageSize)
	if err := cfg.SetupSharedMappings(mmu); err != nil {
		t.Fatal(err)
	}
	if mmu.FramesInUse() != 0 {
		t.Error("no-op setup allocated frames")
	}
}

func TestRefsAreWellFormed(t *testing.T) {
	cfg := tinyConfig()
	cfg.TotalRefs = 50_000
	g := MustNew(cfg)
	for {
		ref, err := g.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if int(ref.CPU) >= cfg.CPUs {
			t.Fatalf("ref on CPU %d", ref.CPU)
		}
		if ref.PID == 0 {
			t.Fatal("ref with PID 0")
		}
		if ref.Kind.IsMemory() && ref.Addr%4 != 0 {
			t.Fatalf("unaligned address %#x", uint64(ref.Addr))
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.TotalRefs = -1 },
		func(c *Config) { c.CPUs = 16 },
		func(c *Config) { c.PageSize = 1000 },
		func(c *Config) { c.InstrFrac = 0.9 }, // mix no longer sums to 1
		func(c *Config) { c.SharedFrac = 1.5 },
	}
	for i, tweak := range bad {
		cfg := tinyConfig()
		tweak(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPresets(t *testing.T) {
	ps := Presets()
	if len(ps) != 3 {
		t.Fatalf("presets = %d", len(ps))
	}
	names := map[string]Config{}
	for _, p := range ps {
		names[p.Name] = p
		if _, err := New(p); err != nil {
			t.Errorf("preset %s invalid: %v", p.Name, err)
		}
	}
	if names["pops"].CPUs != 4 || names["thor"].CPUs != 4 || names["abaqus"].CPUs != 2 {
		t.Error("preset CPU counts wrong")
	}
	if names["abaqus"].CtxSwitchInterval >= names["pops"].CtxSwitchInterval {
		t.Error("abaqus must switch far more often than pops")
	}
	if names["pops"].TotalRefs != 3_286_000 {
		t.Error("pops reference count wrong")
	}
}

func TestPresetByName(t *testing.T) {
	c, err := PresetByName("thor")
	if err != nil || c.Name != "thor" {
		t.Fatalf("PresetByName(thor) = %v, %v", c.Name, err)
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestScaled(t *testing.T) {
	c := PopsLike().Scaled(0.01)
	if c.TotalRefs != 32_860 {
		t.Errorf("scaled refs = %d", c.TotalRefs)
	}
	if c.CtxSwitchInterval != 4700 {
		t.Errorf("scaled interval = %d", c.CtxSwitchInterval)
	}
	tiny := PopsLike().Scaled(0.0000001)
	if tiny.CtxSwitchInterval < 1 {
		t.Error("interval must stay positive")
	}
}

func TestScaledPreservesSwitchCount(t *testing.T) {
	full := AbaqusLike()
	small := full.Scaled(0.01)
	g := MustNew(small)
	c, _ := trace.Summarize(g)
	// Full trace has ~292 switches; the scaled one should be in the same
	// ballpark since interval scales with length.
	if c.CtxSwitches < 150 || c.CtxSwitches > 500 {
		t.Errorf("scaled switches = %d, want ~292", c.CtxSwitches)
	}
}

func TestMTFStack(t *testing.T) {
	s := mtfStack{max: 3}
	s.push(1)
	s.push(2)
	s.push(3) // [3 2 1]
	if got := s.touch(2); got != 1 {
		t.Fatalf("touch(2) = %d", got)
	}
	// Now [1 3 2].
	if s.blocks[0] != 1 || s.blocks[1] != 3 || s.blocks[2] != 2 {
		t.Fatalf("stack = %v", s.blocks)
	}
	s.push(9) // trims to max: [9 1 3]
	if len(s.blocks) != 3 || s.blocks[0] != 9 || s.blocks[2] != 3 {
		t.Fatalf("stack after push = %v", s.blocks)
	}
}

func TestStreamLocality(t *testing.T) {
	// A stream with strong locality should revisit blocks often.
	cfg := tinyConfig()
	g := MustNew(cfg)
	seen := map[uint64]int{}
	p := g.cpus[0].procs[0]
	for i := 0; i < 10_000; i++ {
		va := p.data.next(g.cpus[0].rng)
		seen[uint64(va)/genBlock]++
	}
	if len(seen) >= 9_000 {
		t.Errorf("%d distinct blocks in 10k refs: no locality", len(seen))
	}
}

func TestScaledRefsOnly(t *testing.T) {
	c := AbaqusLike().ScaledRefsOnly(0.1)
	if c.TotalRefs != 119_600 {
		t.Errorf("refs = %d", c.TotalRefs)
	}
	if c.CtxSwitchInterval != AbaqusLike().CtxSwitchInterval {
		t.Error("quantum must be preserved")
	}
	g := MustNew(c)
	ch, _ := trace.Summarize(g)
	// ~119600/2 cpus / 4100 ≈ 14 switches per cpu.
	if ch.CtxSwitches < 15 || ch.CtxSwitches > 40 {
		t.Errorf("switches = %d, want ~28", ch.CtxSwitches)
	}
}
