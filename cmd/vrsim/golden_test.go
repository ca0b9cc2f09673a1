package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/autotune"
	"repro/internal/experiments"
	"repro/internal/tracegen"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden digests from the current outputs")

// goldenScale keeps each vrsim run of the corpus to 6-17 thousand
// references, so its vrsim cells take a few seconds.
const goldenScale = 0.005

// experimentsScale is the trace scale of the experiments cells: every
// paper artifact in about a second.
const experimentsScale = 0.01

var (
	buildLine = regexp.MustCompile(`(?m)^build:.*$`)
	buildJSON = regexp.MustCompile(`"build": \{[^}]*\}`)
)

// maskBuild blanks the binary's identity, the only part of a report that
// legitimately differs between two builds of the same source.
func maskBuild(out []byte) []byte {
	out = buildLine.ReplaceAll(out, []byte("build: <masked>"))
	return buildJSON.ReplaceAll(out, []byte(`"build": {}`))
}

// goldenOptions is a preset run with every machine and latency flag at its
// command-line default.
func goldenOptions(preset string) options {
	return options{
		preset: preset, org: "vr", l1: "16K", l2: "256K",
		b1: 16, b2: 32, a1: 1, a2: 1, scale: goldenScale,
		t1: 1, t2: 4, tm: 20, contention: true,
	}
}

// TestGoldenCorpus pins the byte-exact output of the surfaces that build
// machines: vrsim's text and JSON reports across presets, organizations,
// victim caches and timing; the observability outputs of the probe sinks
// (see addObservabilityCells); the audited report and the -snapshot file
// (see addAuditCells); -compare; every experiment of
// cmd/experiments, one cell each; the candidates of the paper grammar and
// of ci.sh's autotune grammar; and two autotune results (see
// addAutotuneCells). Only SHA-256 digests are
// committed (testdata/golden/vrsim.sha256); regenerate them with
//
//	go test ./cmd/vrsim -run TestGoldenCorpus -update
//
// and say in the change description which cells moved and why.
func TestGoldenCorpus(t *testing.T) {
	cells := corpus{}
	for _, preset := range []string{"pops", "thor", "abaqus"} {
		for _, org := range []string{"vr", "rr", "rrnoincl", "rlt", "vr-wt", "rr-wt"} {
			for _, victim := range []int{0, 4} {
				for _, timed := range []bool{false, true} {
					for _, jsonOut := range []bool{false, true} {
						o := goldenOptions(preset)
						o.org, o.victim, o.timed, o.jsonOut = org, victim, timed, jsonOut
						name := fmt.Sprintf("run/%s/%s/victim%d/timed=%v/json=%v", preset, org, victim, timed, jsonOut)
						var out bytes.Buffer
						if err := run(o, &out, io.Discard); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						cells.add(name, maskBuild(out.Bytes()))
					}
				}
			}
		}
		for _, org := range []string{"vr", "rr", "rrnoincl", "rlt"} {
			for _, timed := range []bool{false, true} {
				addObservabilityCells(t, cells, preset, org, timed)
			}
			addAuditCells(t, cells, preset, org)
		}
		var out bytes.Buffer
		if err := runCompare(goldenOptions(preset), &out); err != nil {
			t.Fatalf("compare/%s: %v", preset, err)
		}
		cells.add("compare/"+preset, out.Bytes())
	}
	for _, e := range experiments.All() {
		var out bytes.Buffer
		if err := e.Run(&out, experimentsScale); err != nil {
			t.Fatalf("experiments/%s: %v", e.ID, err)
		}
		cells.add("experiments/"+e.ID, out.Bytes())
	}
	wl, err := tracegen.PresetByName("pops")
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]autotune.Grammar{
		"grammar/paper": autotune.PaperGrammar(),
		// ci.sh's pruning-soundness grammar.
		"grammar/ci60": {
			Organizations: []string{"vr", "rr", "vr-wt", "rlt"},
			L1Sizes:       []uint64{1024, 4096, 8192},
			L1Assocs:      []int{1},
			L2Sizes:       []uint64{65536, 131072},
			BlockRatios:   []int{2},
			VictimEntries: []int{0, 4},
			RLTEntries:    []int{0, 16},
		},
	} {
		cands, err := g.Expand(wl.CPUs, wl.PageSize)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		for _, c := range cands {
			fmt.Fprintf(&out, "%s\t%+v\t%d\n", c.Label, c.Config, c.Bits)
		}
		cells.add(name, out.Bytes())
	}
	addAutotuneCells(t, cells)
	checkGolden(t, "vrsim.sha256", cells)
}

// addAutotuneCells runs two searches and adds a cell for each result's
// JSON: ci.sh's grammar with ci.sh's options on pops, whose probe windows
// skip part of the trace, and a small Random-against-LRU grammar on thor at
// the default options, whose Random caches draw.
func addAutotuneCells(t *testing.T, cells corpus) {
	t.Helper()
	for name, o := range map[string]autotune.Options{
		"autotune/ci60": {
			Grammar: autotune.Grammar{
				Organizations: []string{"vr", "rr", "vr-wt", "rlt"},
				L1Sizes:       []uint64{1024, 4096, 8192},
				L1Assocs:      []int{1},
				L2Sizes:       []uint64{65536, 131072},
				BlockRatios:   []int{2},
				VictimEntries: []int{0, 4},
				RLTEntries:    []int{0, 16},
			},
			Workload:  tracegen.PopsLike().Scaled(0.01),
			ProbeRefs: 8000, Shards: 2, Warmup: 1000, Margin: 0.15,
		},
		"autotune/random": {
			Grammar: autotune.Grammar{
				Organizations: []string{"vr", "rr", "rrnoincl"},
				L1Sizes:       []uint64{4096, 8192},
				L1Assocs:      []int{2, 4},
				L2Sizes:       []uint64{65536},
				L2Assocs:      []int{2},
				Policies:      []string{"random", "lru"},
			},
			Workload: tracegen.ThorLike().Scaled(0.01),
		},
	} {
		res, err := autotune.Search(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		if err := res.WriteJSON(&out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cells.add(name, out.Bytes())
	}
}

// addObservabilityCells runs one preset and organization at -victim 0 with
// the probe sinks that ride System.Run armed, and adds a cell per output:
// the -metrics-every 2000 window lines printed on stdout, the unfiltered
// -events log, the -chrome-trace file, and on timed runs the -trace-spans
// and -trace-spans-chrome files and the -attr text report (written through
// -attr-out).
func addObservabilityCells(t *testing.T, cells corpus, preset, org string, timed bool) {
	t.Helper()
	dir := t.TempDir()
	o := goldenOptions(preset)
	o.org, o.timed, o.metricsEvery, o.events = org, timed, 2000, true
	o.chromeTrace = filepath.Join(dir, "chrome.json")
	files := map[string]string{"chrome": o.chromeTrace}
	if timed {
		o.traceSpans = filepath.Join(dir, "spans.json")
		o.spanChrome = filepath.Join(dir, "spanschrome.json")
		o.attr, o.attrOut = true, filepath.Join(dir, "attr.txt")
		files["spans"], files["spanschrome"], files["attr"] = o.traceSpans, o.spanChrome, o.attrOut
	}
	name := fmt.Sprintf("obs/%s/%s/timed=%v", preset, org, timed)
	var out, events bytes.Buffer
	if err := run(o, &out, &events); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cells.add(name+"/events", events.Bytes())
	var windows bytes.Buffer
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if strings.HasPrefix(line, "refs ") {
			windows.WriteString(line)
		}
	}
	if windows.Len() == 0 {
		t.Fatalf("%s: no window lines on stdout", name)
	}
	cells.add(name+"/windows", windows.Bytes())
	for kind, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cells.add(name+"/"+kind, data)
	}
}

// addAuditCells runs one preset and organization at -victim 0 under
// -audit-every 1000 with -snapshot, and adds a cell for the text report
// (which carries the audit summary) and one for the snapshot file.
func addAuditCells(t *testing.T, cells corpus, preset, org string) {
	t.Helper()
	o := goldenOptions(preset)
	o.org, o.auditEvery = org, 1000
	o.snapshot = filepath.Join(t.TempDir(), "snapshot.json")
	name := fmt.Sprintf("audit/%s/%s", preset, org)
	var out bytes.Buffer
	if err := run(o, &out, io.Discard); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cells.add(name+"/report", maskBuild(out.Bytes()))
	data, err := os.ReadFile(o.snapshot)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cells.add(name+"/snapshot", data)
}

// corpus holds each cell's SHA-256 and the start of its output, not the
// output itself, so the matrix never keeps every log and trace in memory.
type corpus map[string]cell

type cell struct {
	sum  string
	head string
}

func (c corpus) add(name string, out []byte) {
	sum := sha256.Sum256(out)
	c[name] = cell{sum: hex.EncodeToString(sum[:]), head: head(out, 12)}
}

// checkGolden compares each cell's SHA-256 against the digest file under
// testdata/golden, or rewrites the file under -update. A mismatch names the
// cell and prints the start of the regenerated output.
func checkGolden(t *testing.T, file string, cells corpus) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "golden", file)
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateGolden {
		var buf bytes.Buffer
		for _, name := range names {
			fmt.Fprintf(&buf, "%s  %s\n", cells[name].sum, name)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			want[name] = sum
		}
	}
	for _, name := range names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no recorded digest (regenerate with -update)", name)
		case w != cells[name].sum:
			t.Errorf("%s: digest %s, recorded %s; regenerated output begins:\n%s",
				name, cells[name].sum, w, cells[name].head)
		}
	}
	for name := range want {
		if _, ok := cells[name]; !ok {
			t.Errorf("%s: recorded but no longer produced", name)
		}
	}
}

// head returns the first n lines of out.
func head(out []byte, n int) string {
	lines := strings.SplitAfterN(string(out), "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "")
}
