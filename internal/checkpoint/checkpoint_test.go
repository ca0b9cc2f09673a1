package checkpoint

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cycles"
	"repro/internal/report"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// testMachine is a small machine exercising every organization's moving
// parts (split V-cache, write buffer, TLB) without making the differential
// matrix slow.
func testMachine(org system.Organization, cpus int) system.Config {
	return system.Config{
		CPUs:         cpus,
		Organization: org,
		L1:           cache.Geometry{Size: 4096, Block: 16, Assoc: 1},
		L2:           cache.Geometry{Size: 16384, Block: 32, Assoc: 2},
	}
}

// testWorkload scales a preset down and pins its CPU count.
func testWorkload(t *testing.T, preset string, scale float64, cpus int) tracegen.Config {
	t.Helper()
	tc, err := tracegen.PresetByName(preset)
	if err != nil {
		t.Fatal(err)
	}
	tc = tc.Scaled(scale)
	tc.CPUs = cpus
	return tc
}

// build assembles a cold machine with the workload's shared mappings.
func build(t *testing.T, cfg system.Config, tc tracegen.Config) *system.System {
	t.Helper()
	sys, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.SetupSharedMappings(sys.MMU()); err != nil {
		t.Fatal(err)
	}
	return sys
}

// reportJSON finishes a report for comparison.
func reportJSON(t *testing.T, sys *system.System, cfg system.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.FromSystem(sys, cfg).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// signature fingerprints a test scenario.
func signature(cfg system.Config, tc tracegen.Config) string {
	return tc.Signature() + "|" + cfg.Organization.String()
}

// countingReader counts every record (references and context switches)
// passing through: the trace cursor a checkpoint stores.
type countingReader struct {
	r trace.Reader
	n uint64
}

func (c *countingReader) Next() (trace.Ref, error) {
	ref, err := c.r.Next()
	if err == nil {
		c.n++
	}
	return ref, err
}

// runUninterrupted simulates the whole trace in one go.
func runUninterrupted(t *testing.T, cfg system.Config, tc tracegen.Config) []byte {
	t.Helper()
	sys := build(t, cfg, tc)
	if err := sys.Run(tracegen.MustNew(tc)); err != nil {
		t.Fatal(err)
	}
	return reportJSON(t, sys, cfg)
}

// runInterrupted simulates half the records, saves a checkpoint through a
// full encode/decode cycle, restores it into a brand-new machine, and
// finishes the trace there.
func runInterrupted(t *testing.T, cfg system.Config, tc tracegen.Config) []byte {
	t.Helper()
	sig := signature(cfg, tc)

	first := build(t, cfg, tc)
	r := &countingReader{r: tracegen.MustNew(tc)}
	if _, err := first.RunRecords(r, uint64(tc.TotalRefs)/2); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(first, sig, r.n)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the bytes, as a save-to-disk-and-reload would.
	ck2, err := Decode(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}

	second := build(t, cfg, tc)
	if err := Restore(second, ck2, sig); err != nil {
		t.Fatal(err)
	}
	rr := tracegen.MustNew(tc)
	if err := ResumeReader(rr, ck2.Cursor); err != nil {
		t.Fatal(err)
	}
	if err := second.Run(rr); err != nil {
		t.Fatal(err)
	}
	return reportJSON(t, second, cfg)
}

// TestSaveRestoreByteIdentical is the differential equivalence matrix: for
// every preset, organization and CPU count, a run interrupted by a
// checkpoint-save-restore cycle must produce a byte-identical full JSON
// report to the run that was never interrupted.
func TestSaveRestoreByteIdentical(t *testing.T) {
	for _, preset := range []string{"pops", "thor", "abaqus"} {
		for _, org := range []system.Organization{system.VR, system.RRInclusion, system.RRNoInclusion} {
			for _, cpus := range []int{1, 2, 4} {
				preset, org, cpus := preset, org, cpus
				t.Run(preset+"/"+org.String()+"/"+itoa(cpus), func(t *testing.T) {
					t.Parallel()
					cfg := testMachine(org, cpus)
					tc := testWorkload(t, preset, 0.003, cpus)
					want := runUninterrupted(t, cfg, tc)
					got := runInterrupted(t, cfg, tc)
					if !bytes.Equal(want, got) {
						t.Errorf("restored run's report diverges:\nuninterrupted:\n%s\nrestored:\n%s", want, got)
					}
				})
			}
		}
	}
}

// TestSaveRestoreWithTimingAndOracle covers the optional machine state the
// plain matrix leaves off: cycle clocks and the consistency oracle.
func TestSaveRestoreWithTimingAndOracle(t *testing.T) {
	tc := testWorkload(t, "pops", 0.003, 2)
	cfg := testMachine(system.VR, 2)
	cfg.CheckOracle = true

	mk := func() system.Config {
		c := cfg
		c.Cycles = cycles.MustNew(cycles.ContentionParams(), nil)
		return c
	}
	cfgA := mk()
	sysA := build(t, cfgA, tc)
	if err := sysA.Run(tracegen.MustNew(tc)); err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, sysA, cfgA)

	sig := signature(cfg, tc)
	cfgB := mk()
	first := build(t, cfgB, tc)
	r := &countingReader{r: tracegen.MustNew(tc)}
	if _, err := first.RunRecords(r, uint64(tc.TotalRefs)/3); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(first, sig, r.n)
	if err != nil {
		t.Fatal(err)
	}
	ck, err = Decode(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}
	cfgC := mk()
	second := build(t, cfgC, tc)
	if err := Restore(second, ck, sig); err != nil {
		t.Fatal(err)
	}
	rr := tracegen.MustNew(tc)
	if err := ResumeReader(rr, ck.Cursor); err != nil {
		t.Fatal(err)
	}
	if err := second.Run(rr); err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, second, cfgC); !bytes.Equal(want, got) {
		t.Errorf("restored timed run diverges:\nuninterrupted:\n%s\nrestored:\n%s", want, got)
	}
}

// TestRestoreLeavesCheckpointIntact: a restored machine must own its state.
// Running it on may not change the checkpoint it came from, which its
// caller may still hold and encode again.
func TestRestoreLeavesCheckpointIntact(t *testing.T) {
	tc := testWorkload(t, "pops", 0.005, 2)
	victim := testMachine(system.VR, 2)
	victim.VictimEntries = 4
	timed := testMachine(system.VR, 2)
	timed.Cycles = cycles.MustNew(cycles.ContentionParams(), nil)
	for name, cfg := range map[string]system.Config{
		"vr":        testMachine(system.VR, 2),
		"rr":        testMachine(system.RRInclusion, 2),
		"rrnoincl":  testMachine(system.RRNoInclusion, 2),
		"rlt":       testMachine(system.VRRLT, 2),
		"vr+victim": victim,
		"vr+timed":  timed,
	} {
		t.Run(name, func(t *testing.T) {
			// Each machine gets its own cycle engine, as in a real run.
			mk := func() *system.System {
				c := cfg
				if c.Cycles != nil {
					c.Cycles = cycles.MustNew(cycles.ContentionParams(), nil)
				}
				return build(t, c, tc)
			}
			sig := signature(cfg, tc)
			first := mk()
			r := &countingReader{r: tracegen.MustNew(tc)}
			if _, err := first.RunRecords(r, uint64(tc.TotalRefs)/2); err != nil {
				t.Fatal(err)
			}
			ck, err := Capture(first, sig, r.n)
			if err != nil {
				t.Fatal(err)
			}
			want := ck.Encode()

			second := mk()
			if err := Restore(second, ck, sig); err != nil {
				t.Fatal(err)
			}
			rr := tracegen.MustNew(tc)
			if err := ResumeReader(rr, ck.Cursor); err != nil {
				t.Fatal(err)
			}
			if _, err := second.RunRecords(rr, 5000); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ck.Encode(), want) {
				t.Error("running the restored machine changed the checkpoint it was restored from")
			}
		})
	}
}

// draws sums the random-source draws recorded in every tag store of a
// machine state.
func draws(m *system.MachineState) uint64 {
	var n uint64
	for _, h := range m.CPUs {
		for _, vc := range h.VCaches {
			n += vc.Draws
		}
		if h.L1 != nil {
			n += h.L1.Draws
		}
		n += h.RCache.Draws + h.TLB.Draws
	}
	return n
}

// TestSaveRestoreRandomPolicy covers Random replacement, whose caches
// record how many values they drew and replay that many from the seed on
// restore. A checkpoint taken before the first draw and one taken after
// many must both continue into exactly the final state of the run that
// was never interrupted.
func TestSaveRestoreRandomPolicy(t *testing.T) {
	tc := testWorkload(t, "pops", 0.003, 2)
	for _, org := range []system.Organization{system.VR, system.RRInclusion, system.RRNoInclusion} {
		t.Run(org.String(), func(t *testing.T) {
			cfg := testMachine(org, 2)
			cfg.L1.Assoc = 2
			cfg.L1Policy, cfg.L2Policy = cache.Random, cache.Random
			sig := signature(cfg, tc)

			whole := build(t, cfg, tc)
			records, err := whole.RunRecords(tracegen.MustNew(tc), math.MaxUint64)
			if err != nil {
				t.Fatal(err)
			}
			whole.Drain()
			final, err := Capture(whole, sig, records)
			if err != nil {
				t.Fatal(err)
			}
			if draws(final.Machine) == 0 {
				t.Fatal("the uninterrupted run never drew from a random source")
			}
			want := final.Encode()

			for _, at := range []uint64{20, records / 2} {
				first := build(t, cfg, tc)
				if _, err := first.RunRecords(tracegen.MustNew(tc), at); err != nil {
					t.Fatal(err)
				}
				ck, err := Capture(first, sig, at)
				if err != nil {
					t.Fatal(err)
				}
				switch d := draws(ck.Machine); {
				case at == 20 && d != 0:
					t.Fatalf("checkpoint at record 20 follows %d draws, want none", d)
				case at > 20 && d < 100:
					t.Fatalf("checkpoint at record %d follows only %d draws", at, d)
				}
				if ck, err = Decode(ck.Encode()); err != nil {
					t.Fatal(err)
				}
				second := build(t, cfg, tc)
				if err := Restore(second, ck, sig); err != nil {
					t.Fatal(err)
				}
				rr := tracegen.MustNew(tc)
				if err := ResumeReader(rr, ck.Cursor); err != nil {
					t.Fatal(err)
				}
				if err := second.Run(rr); err != nil {
					t.Fatal(err)
				}
				got, err := Capture(second, sig, records)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Encode(), want) {
					t.Errorf("restored at record %d: final state diverges from the uninterrupted run's", at)
				}
			}
		})
	}
}

// TestRestoreRejectsMismatches exercises the validation paths a wrong
// resume must hit instead of corrupting a simulation.
func TestRestoreRejectsMismatches(t *testing.T) {
	tc := testWorkload(t, "pops", 0.002, 1)
	cfg := testMachine(system.VR, 1)
	sig := signature(cfg, tc)
	sys := build(t, cfg, tc)
	if _, err := sys.RunRecords(tracegen.MustNew(tc), 500); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(sys, sig, 500)
	if err != nil {
		t.Fatal(err)
	}

	if err := Restore(build(t, cfg, tc), ck, "other-signature"); err == nil {
		t.Error("restore with a mismatched signature succeeded")
	}
	if err := Restore(build(t, cfg, tc), &Checkpoint{Signature: sig}, sig); err == nil {
		t.Error("restore with no machine state succeeded")
	}
	wrongOrg := testMachine(system.RRNoInclusion, 1)
	if err := Restore(build(t, wrongOrg, tc), ck, sig); err == nil {
		t.Error("restore into the wrong organization succeeded")
	}
	wrongCPUs := testMachine(system.VR, 2)
	tc2 := tc
	tc2.CPUs = 2
	if err := Restore(build(t, wrongCPUs, tc2), ck, sig); err == nil {
		t.Error("restore into the wrong CPU count succeeded")
	}
}

// TestResumeReaderPastEnd: a cursor beyond the trace's last record belongs
// to another workload, so positioning a replay there must fail; a cursor
// exactly at the end leaves nothing to run but is a valid position.
func TestResumeReaderPastEnd(t *testing.T) {
	tc := testWorkload(t, "pops", 0.001, 1)
	records, err := trace.Skip(tracegen.MustNew(tc), math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ResumeReader(tracegen.MustNew(tc), records); err != nil {
		t.Errorf("cursor at the end of a %d-record trace: %v", records, err)
	}
	err = ResumeReader(tracegen.MustNew(tc), records+1)
	if err == nil || !strings.Contains(err.Error(), "trace ended") {
		t.Errorf("cursor past the end of a %d-record trace: err = %v", records, err)
	}
}

// TestCodecRoundTrip checks Encode/Decode on a real machine state: decode
// must reproduce the value exactly and re-encode to the same bytes.
func TestCodecRoundTrip(t *testing.T) {
	tc := testWorkload(t, "thor", 0.002, 2)
	cfg := testMachine(system.RRInclusion, 2)
	sys := build(t, cfg, tc)
	if _, err := sys.RunRecords(tracegen.MustNew(tc), 2000); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(sys, signature(cfg, tc), 2000)
	if err != nil {
		t.Fatal(err)
	}
	data := ck.Encode()
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, back) {
		t.Error("decode(encode(c)) != c")
	}
	if !bytes.Equal(back.Encode(), data) {
		t.Error("encode(decode(data)) != data")
	}
}

// TestDecodeRejectsMalformed spot-checks the decoder's defenses; the fuzz
// target explores far more.
func TestDecodeRejectsMalformed(t *testing.T) {
	good := (&Checkpoint{Signature: "s", Cursor: 7}).Encode()
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    {'X', 'R', 'C', 'K', 1},
		"bad version":  {'V', 'R', 'C', 'K', 99},
		"truncated":    good[:len(good)-1],
		"trailing":     append(append([]byte{}, good...), 0),
		"huge string":  {'V', 'R', 'C', 'K', 1, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"bad ptr flag": func() []byte { b := append([]byte{}, good...); b[len(b)-1] = 9; return b }(),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
