package jobs

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
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

// checkGolden compares each cell's SHA-256 against the digest file under
// testdata/golden, or rewrites the file under -update. A mismatch names the
// cell and prints the regenerated output.
func checkGolden(t *testing.T, file string, cells map[string][]byte) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "golden", file)
	got := map[string]string{}
	names := make([]string, 0, len(cells))
	for name, out := range cells {
		sum := sha256.Sum256(out)
		got[name] = hex.EncodeToString(sum[:])
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateGolden {
		var buf bytes.Buffer
		for _, name := range names {
			fmt.Fprintf(&buf, "%s  %s\n", got[name], name)
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
		case w != got[name]:
			t.Errorf("%s: digest %s, recorded %s; regenerated output:\n%s", name, got[name], w, cells[name])
		}
	}
	for name := range want {
		if _, ok := cells[name]; !ok {
			t.Errorf("%s: recorded but no longer produced", name)
		}
	}
}
