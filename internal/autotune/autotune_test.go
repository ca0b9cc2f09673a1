package autotune

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/system"
	"repro/internal/tracegen"
)

// testGrammar is the reference grammar of the soundness and determinism
// tests: small enough to measure exhaustively, wide enough to include
// dominated interior points on every axis.
func testGrammar() Grammar {
	return Grammar{
		Organizations: []string{"vr", "rrnoincl"},
		L1Sizes:       []uint64{4 << 10, 8 << 10},
		L1Assocs:      []int{1, 2},
		L2Sizes:       []uint64{64 << 10, 128 << 10},
		BlockRatios:   []int{2},
	}
}

func testWorkload() tracegen.Config {
	return tracegen.PopsLike().Scaled(0.003)
}

func testOptions() Options {
	return Options{
		Grammar:   testGrammar(),
		Workload:  testWorkload(),
		ProbeRefs: 2_000,
		Shards:    2,
		Warmup:    500,
	}
}

func TestGrammarExpandDeterministic(t *testing.T) {
	g := testGrammar()
	a, err := g.Expand(4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Expand(4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two expansions of the same grammar differ")
	}
	if len(a) != 16 {
		t.Errorf("expanded to %d candidates, want 16", len(a))
	}
	seen := map[string]bool{}
	for _, c := range a {
		if seen[c.Label] {
			t.Errorf("duplicate label %q", c.Label)
		}
		seen[c.Label] = true
		if c.Bits == 0 {
			t.Errorf("%s: zero SRAM bits", c.Label)
		}
	}
}

// TestPaperGrammarScale proves the default space clears the four-digit
// candidate floor the roadmap demands.
func TestPaperGrammarScale(t *testing.T) {
	cands, err := PaperGrammar().Expand(4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 1000 {
		t.Errorf("paper grammar expands to %d candidates, want >= 1000", len(cands))
	}
}

func TestGrammarRejectsBadTokens(t *testing.T) {
	if _, err := (Grammar{Organizations: []string{"ringbus"}}).Expand(1, 4096); err == nil {
		t.Error("unknown organization accepted")
	}
	if _, err := (Grammar{Policies: []string{"plru"}}).Expand(1, 4096); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := (Grammar{BlockRatios: []int{3}}).Expand(1, 4096); err == nil {
		t.Error("non-power-of-two block ratio accepted")
	}
}

// TestGrammarSynonymAxes covers the victim-cache and RLT axes: the RLT
// axis must only attach to the "rlt" organization (and be dropped, not
// rejected, elsewhere), labels must carry the new fields, and every
// expanded candidate must actually build.
func TestGrammarSynonymAxes(t *testing.T) {
	g := Grammar{
		Organizations: []string{"vr", "rlt"},
		L1Sizes:       []uint64{4 << 10},
		L2Sizes:       []uint64{64 << 10},
		VictimEntries: []int{0, 4},
		RLTEntries:    []int{0, 16},
	}
	cands, err := g.Expand(1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// vr expands over victim only (2); rlt over victim x rlt (4).
	if len(cands) != 6 {
		for _, c := range cands {
			t.Log(c.Label)
		}
		t.Fatalf("expanded to %d candidates, want 6", len(cands))
	}
	var sawVC, sawRLT bool
	for _, c := range cands {
		if c.Config.RLTEntries != 0 && c.Config.Organization != system.VRRLT {
			t.Errorf("%s: RLT entries on a non-rlt organization", c.Label)
		}
		if c.Config.VictimEntries == 4 {
			sawVC = true
			if !bytes.Contains([]byte(c.Label), []byte("/vc=4")) {
				t.Errorf("%s: victim cache missing from label", c.Label)
			}
		}
		if c.Config.RLTEntries == 16 {
			sawRLT = true
			if !bytes.Contains([]byte(c.Label), []byte("/rlt=16")) {
				t.Errorf("%s: RLT size missing from label", c.Label)
			}
		}
		if _, err := system.New(c.Config); err != nil {
			t.Errorf("%s: expanded candidate does not build: %v", c.Label, err)
		}
	}
	if !sawVC || !sawRLT {
		t.Errorf("axes not exercised: victim=%v rlt=%v", sawVC, sawRLT)
	}
}

func TestLegalRejectsSynonymMisuse(t *testing.T) {
	base := system.Config{
		Organization:  system.VR,
		L1:            cache.Geometry{Size: 4 << 10, Block: 16, Assoc: 1},
		L2:            cache.Geometry{Size: 64 << 10, Block: 32, Assoc: 1},
		TLBEntries:    64,
		TLBAssoc:      2,
		WriteBufDepth: 1,
	}
	if base.Validate() != nil {
		t.Fatal("baseline config not legal")
	}
	c := base
	c.RLTEntries = 16
	if c.Validate() == nil {
		t.Error("RLT entries on a vr organization accepted")
	}
	c.Organization = system.VRRLT
	if err := c.Validate(); err != nil {
		t.Errorf("RLT entries on the rlt organization rejected: %v", err)
	}
	c.RLTEntries = 12
	if c.Validate() == nil {
		t.Error("RLT entry count with a non-power-of-two set count accepted")
	}
	c = base
	c.VictimEntries = -1
	if c.Validate() == nil {
		t.Error("negative victim entries accepted")
	}
}

// TestSRAMBitsModel pins the cost model's monotonicity: more capacity,
// associativity, buffer depth or TLB reach never costs fewer bits.
func TestSRAMBitsModel(t *testing.T) {
	base := system.Config{
		CPUs:          4,
		Organization:  system.VR,
		L1:            cache.Geometry{Size: 8 << 10, Block: 16, Assoc: 1},
		L2:            cache.Geometry{Size: 128 << 10, Block: 32, Assoc: 1},
		TLBEntries:    64,
		TLBAssoc:      2,
		WriteBufDepth: 1,
	}
	b0 := SRAMBits(base)

	grow := base
	grow.L2.Size = 256 << 10
	if SRAMBits(grow) <= b0 {
		t.Error("doubling L2 capacity did not raise the cost")
	}
	grow = base
	grow.L1.Assoc = 2
	if SRAMBits(grow) <= b0 {
		t.Error("doubling L1 associativity did not raise the cost")
	}
	grow = base
	grow.WriteBufDepth = 8
	if SRAMBits(grow) <= b0 {
		t.Error("deepening the write buffer did not raise the cost")
	}
	grow = base
	grow.VictimEntries = 4
	if SRAMBits(grow) <= b0 {
		t.Error("adding a victim cache did not raise the cost")
	}
	if SRAMBits(base) != b0 {
		t.Error("cost model is not deterministic")
	}
	// Fields left zero cost what the machine system.New builds from them
	// spells out, whatever system's defaults are.
	zero := base
	zero.CPUs, zero.TLBEntries, zero.TLBAssoc, zero.WriteBufDepth = 0, 0, 0, 0
	if got, want := SRAMBits(zero), SRAMBits(system.MustNew(zero).Config()); got != want {
		t.Errorf("a config with zero defaults costs %d bits, the machine built from it %d", got, want)
	}

	// The RLT trades per-subentry v-pointers for a shared table: a small
	// table must cost less than pointers on every subentry, but growing the
	// table must still raise the cost monotonically.
	rlt := base
	rlt.Organization = system.VRRLT
	rlt.RLTEntries = 16
	small := SRAMBits(rlt)
	rlt.RLTEntries = 256
	big := SRAMBits(rlt)
	if big <= small {
		t.Error("growing the RLT did not raise the cost")
	}
	if small >= b0 {
		t.Errorf("a 16-entry RLT (%d bits) should undercut per-subentry v-pointers (%d bits)", small, b0)
	}
}

// TestSearchDeterministic is the satellite guarantee: the same grammar and
// workload produce byte-identical results at every parallelism.
func TestSearchDeterministic(t *testing.T) {
	var outs [][]byte
	for _, par := range []int{1, 4} {
		o := testOptions()
		o.Parallel = par
		res, err := Search(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.Bytes())
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("results differ across -parallel:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

// TestPruningSound is the tentpole guarantee: the pruned search returns
// exactly the frontier the exhaustive search finds on the reference
// grammar — pruning changes the cost of the search, never its answer.
func TestPruningSound(t *testing.T) {
	pruned, err := Search(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions()
	o.Exhaustive = true
	exhaustive, err := Search(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	if !reflect.DeepEqual(stripProbe(pruned.Frontier), stripProbe(exhaustive.Frontier)) {
		t.Errorf("pruned frontier differs from exhaustive:\npruned:     %+v\nexhaustive: %+v",
			pruned.Frontier, exhaustive.Frontier)
	}
	if !pruned.MarginSound {
		t.Errorf("margin %.4f is not sound against probe error spread %.4f",
			pruned.Margin, pruned.ProbeErrSpread)
	}
	if pruned.Pruned == 0 {
		t.Log("note: the probe pass pruned nothing on this grammar")
	}
}

// stripProbe drops the probe column (absent from exhaustive results) so
// frontiers compare on (label, bits, exact Tacc) alone.
func stripProbe(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		p.ProbeTacc = 0
		out[i] = p
	}
	return out
}

// TestSearchReports smoke-tests the text renderer and plot.
func TestSearchReports(t *testing.T) {
	res, err := Search(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	s := buf.String()
	for _, want := range []string{"Pareto frontier", "candidates", "o"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("text report lacks %q:\n%s", want, s)
		}
	}
}
