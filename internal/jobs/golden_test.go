package jobs

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/tsdb"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden digests from the current outputs")

// TestGoldenMachines pins the label and system.Config each machine spec
// resolves to: the label names the machine in reports, and the config
// (through %+v) is part of every persisted job's checkpoint signature, so
// either one moving would orphan parked jobs. The specs cover every
// default. Digests live in testdata/golden/jobs.sha256; regenerate with
//
//	go test ./internal/jobs -run TestGoldenMachines -update
func TestGoldenMachines(t *testing.T) {
	specs := []struct {
		name string
		spec MachineSpec
	}{
		{"empty", MachineSpec{}},
		{"split", MachineSpec{Split: true}},
		{"rlt", MachineSpec{Org: "rlt"}},
		{"rlt-entries", MachineSpec{Org: "rlt", RLTEntries: 64}},
		{"victim", MachineSpec{Victim: 4}},
		{"vr-wt", MachineSpec{Org: "vr-wt"}},
		{"rr-wt", MachineSpec{Org: "rr-wt"}},
		{"fifo", MachineSpec{Policy: "fifo"}},
		{"random", MachineSpec{Policy: "random"}},
		{"tlb128x4", MachineSpec{TLBEntries: 128, TLBAssoc: 4}},
		{"wb4", MachineSpec{WriteBufDepth: 4}},
		{"l1block32", MachineSpec{L1Block: 32}},
		{"rr-labelled", MachineSpec{Org: "rr", Label: "mine", L1Size: 32 << 10, L1Assoc: 2, L2Assoc: 4}},
		{"rrnoincl", MachineSpec{Org: "rrnoincl", L2Size: 1 << 20, L2Block: 64}},
	}
	cfg := &Config{Kind: KindSweep, Preset: "thor"}
	for _, s := range specs {
		cfg.Machines = append(cfg.Machines, s.spec)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	ms, err := cfg.machines(cfg.workload())
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string][]byte{}
	for i, m := range ms {
		cells["jobs/"+specs[i].name] = []byte(fmt.Sprintf("%s\n%+v\n", m.label, m.cfg))
	}
	checkGolden(t, "jobs.sha256", cells)
}

// TestGoldenSweepJob pins what vrsimd serves for one sweep job run through
// the Manager on one worker: its report, and its persisted time series as
// the JSON of a whole-range query. Regenerate with
//
//	go test ./internal/jobs -run TestGoldenSweepJob -update
func TestGoldenSweepJob(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir(), Workers: 1, ProgressEvery: 2000})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit([]byte(`{"kind": "sweep", "preset": "thor", "scale": 0.01, "timed": true,
		"machines": [{"org": "vr"}, {"org": "rr", "l2Size": 524288}, {"org": "rlt", "victim": 4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for !Terminal(st.State) {
		time.Sleep(time.Millisecond)
		st, _ = m.Get(st.ID)
	}
	if st.State != StateDone {
		t.Fatalf("sweep job %s: %s", st.State, st.Error)
	}
	report, err := m.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := m.Timeseries(st.ID, tsdb.Query{})
	if err != nil || len(samples) == 0 {
		t.Fatalf("sweep job persisted %d windows: %v", len(samples), err)
	}
	series, err := json.Marshal(samples)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "jobs.sha256", map[string][]byte{"sweepjob/report": report, "sweepjob/series": series})
}

// checkGolden compares each cell's SHA-256 against the digest file under
// testdata/golden, or rewrites the file under -update. A cell's family is
// its name up to the first slash: a call owns the families of the cells it
// passes, and the file's other families are left to the tests that own
// them. A mismatch names the cell and prints the regenerated output.
func checkGolden(t *testing.T, file string, cells map[string][]byte) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "golden", file)
	family := func(name string) string {
		f, _, _ := strings.Cut(name, "/")
		return f
	}
	got := map[string]string{}
	owned := map[string]bool{}
	for name, out := range cells {
		sum := sha256.Sum256(out)
		got[name] = hex.EncodeToString(sum[:])
		owned[family(name)] = true
	}
	data, err := os.ReadFile(path)
	if err != nil && !(*updateGolden && errors.Is(err, fs.ErrNotExist)) {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			want[name] = sum
		}
	}
	if *updateGolden {
		for name := range want {
			if owned[family(name)] {
				delete(want, name)
			}
		}
		for name, sum := range got {
			want[name] = sum
		}
		names := make([]string, 0, len(want))
		for name := range want {
			names = append(names, name)
		}
		sort.Strings(names)
		var buf bytes.Buffer
		for _, name := range names {
			fmt.Fprintf(&buf, "%s  %s\n", want[name], name)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no recorded digest (regenerate with -update)", name)
		case w != got[name]:
			t.Errorf("%s: digest %s, recorded %s; regenerated output:\n%s", name, got[name], w, cells[name])
		}
	}
	for name := range want {
		if _, ok := cells[name]; !ok && owned[family(name)] {
			t.Errorf("%s: recorded but no longer produced", name)
		}
	}
}
