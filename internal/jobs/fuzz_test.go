package jobs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/system"
)

// FuzzJobConfigDecode feeds arbitrary bytes to the job-submission decoder —
// the exact bytes an HTTP client can put on the wire. The decoder must
// never panic, must return the structured *Error on rejection, and any
// document it accepts must satisfy three properties:
//
//  1. Validate holds on the decoded struct (DecodeConfig really validated).
//  2. Canonical re-encodes to a document DecodeConfig accepts again, and
//     the second decode canonicalizes identically (a fixed point — the
//     manager persists Canonical bytes and must be able to recover them).
//  3. The workload resolves and every machine builds with system.New:
//     acceptance means the job is actually runnable, within the service
//     bounds.
func FuzzJobConfigDecode(f *testing.F) {
	for _, seed := range []string{
		// The documents the README and e2e suite submit.
		`{"kind":"run","preset":"pops"}`,
		`{"kind":"run","preset":"pops","scale":0.05,"timed":true,"params":{"tm":30}}`,
		`{"kind":"run","preset":"abaqus","deadline":"90s","machine":{"org":"rr","l1Size":32768,"l1Assoc":2,"split":true}}`,
		`{"kind":"sweep","preset":"thor","machines":[{"org":"vr"},{"org":"rr","l2Size":524288},{"label":"wt","org":"vr-wt"}]}`,
		`{"kind":"autotune","preset":"pops","scale":0.02,"autotune":{"exhaustive":true,"grammar":{"organizations":["vr","rr"]}}}`,
		`{"kind":"autotune","preset":"pops","autotune":{"probeRefs":20000,"shards":2,"margin":0.5}}`,
		// Synonym-strategy fields: the rlt organization, victim caches, and
		// the grammar axes for both.
		`{"kind":"run","preset":"pops","machine":{"org":"rlt","rltEntries":16,"victim":4}}`,
		`{"kind":"sweep","preset":"abaqus","machines":[{"org":"vr","victim":8},{"org":"rlt"},{"org":"rrnoincl","victim":4}]}`,
		`{"kind":"autotune","preset":"pops","autotune":{"grammar":{"organizations":["vr","rlt"],"victimEntries":[0,4],"rltEntries":[0,16]}}}`,
		// Structurally valid, semantically wrong: exercise every validator arm.
		`{"kind":"run","preset":"pops","machine":{"org":"vr","rltEntries":16}}`,
		`{"kind":"run","preset":"pops","machine":{"org":"rlt","rltEntries":12}}`,
		`{"kind":"run","preset":"pops","machine":{"victim":-1}}`,
		`{"kind":"walk","preset":"pops"}`,
		`{"kind":"run","preset":"pops","scale":-3}`,
		`{"kind":"run","preset":"pops","machine":{"l1Size":12345}}`,
		`{"kind":"run","preset":"pops","machine":{"l1Block":16,"l2Block":8}}`,
		`{"kind":"sweep","preset":"pops"}`,
		`{"kind":"autotune","preset":"pops","timed":true}`,
		`{"kind":"run","preset":"pops","deadline":"-1s"}`,
		`{"kind":"run","preset":"pops","params":{"t1":9}}`,
		// Malformed bytes.
		``,
		`{`,
		`[]`,
		`{"kind":"run","preset":"pops"}{"kind":"run"}`,
		`{"kind":"run","preset":"pops","bogus":true}`,
		"\x00\x01\x02",
		// Machines the admission check once let through and system.New
		// then refused: a split no-inclusion L1, and split halves too small
		// to be a cache.
		`{"kind":"run","preset":"pops","machine":{"org":"rrnoincl","split":true}}`,
		`{"kind":"run","preset":"pops","machine":{"l1Size":16,"split":true}}`,
		`{"kind":"sweep","preset":"pops","machines":[{"org":"vr"},{"l1Size":16,"split":true}]}`,
		// An autotune trace past the in-memory bound, and the retired
		// "chunk" field, still decoded and ignored.
		`{"kind":"autotune","preset":"pops","scale":16}`,
		`{"kind":"autotune","preset":"pops","autotune":{"chunk":4}}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeConfig(data)
		if err != nil {
			var je *Error
			if !asJobsError(err, &je) {
				t.Fatalf("rejection is not a *jobs.Error: %T %v", err, err)
			}
			if je.Msg == "" {
				t.Fatal("rejection with an empty message")
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config fails Validate: %v", err)
		}

		canon := cfg.Canonical()
		again, err := DecodeConfig(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ncanonical: %s", err, canon)
		}
		if !bytes.Equal(canon, again.Canonical()) {
			t.Fatalf("canonicalization is not a fixed point:\nfirst:  %s\nsecond: %s", canon, again.Canonical())
		}

		// Accepted means runnable: the workload resolves and, for run and
		// sweep jobs, every machine builds.
		wl := cfg.workload()
		if wl.TotalRefs <= 0 || float64(wl.TotalRefs) > maxRefs {
			t.Fatalf("accepted workload has %d refs", wl.TotalRefs)
		}
		if cfg.Kind == KindRun || cfg.Kind == KindSweep {
			ms, err := cfg.machines(wl)
			if err != nil {
				t.Fatalf("accepted config builds no machines: %v", err)
			}
			if len(ms) == 0 || len(ms) > maxSweepConfigs {
				t.Fatalf("accepted config built %d machines", len(ms))
			}
			for _, m := range ms {
				// A machine near the service bounds indexes hundreds of MB of
				// sets; past this budget only Validate, New's first step, runs.
				if sets := m.cfg.CPUs * (m.cfg.L1.Sets() + m.cfg.L2.Sets()); sets > fuzzMaxSets {
					if err := m.cfg.Validate(); err != nil {
						t.Fatalf("accepted machine %q is illegal: %v", m.label, err)
					}
					continue
				}
				if _, err := system.New(m.cfg); err != nil {
					t.Fatalf("accepted machine %q does not build: %v", m.label, err)
				}
			}
		}
		_ = cfg.cycleParams()
	})
}

// fuzzMaxSets bounds the cache sets one fuzzed machine may allocate.
const fuzzMaxSets = 1 << 20

// asJobsError unwraps to *Error without importing errors (keeps the fuzz
// target dependency-light; identical semantics for this one type).
func asJobsError(err error, target **Error) bool {
	je, ok := err.(*Error)
	if ok {
		*target = je
	}
	return ok
}

// TestDecodeConfigCanonicalStable pins the canonical form of a fully
// populated document, so accidental field renames show up as a diff here
// rather than as silently orphaned persisted specs.
func TestDecodeConfigCanonicalStable(t *testing.T) {
	in := `{
		"kind": "sweep", "preset": "thor", "scale": 0.25, "deadline": "5m",
		"timed": true, "params": {"t1": 1, "t2": 4, "tm": 30, "contention": false},
		"machines": [
			{"label": "a", "org": "vr", "l1Size": 16384, "l1Assoc": 1, "l1Block": 16,
			 "split": true, "l2Size": 262144, "l2Assoc": 2, "l2Block": 32,
			 "tlbEntries": 64, "tlbAssoc": 2, "writeBufDepth": 4, "policy": "fifo"}
		]}`
	cfg, err := DecodeConfig([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(cfg.Canonical(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"kind", "preset", "scale", "deadline", "timed", "params", "machines"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("canonical form lost %q", key)
		}
	}
}

// TestAutotuneTraceBound holds autotune jobs, whose search keeps the whole
// trace in memory, to maxAutotuneRefs scaled references, and only them: a
// run or sweep job streams its trace and keeps the scale bound alone.
func TestAutotuneTraceBound(t *testing.T) {
	for _, tc := range []struct {
		doc string
		ok  bool
	}{
		{`{"kind":"autotune","preset":"pops","scale":5}`, true},
		{`{"kind":"autotune","preset":"abaqus","scale":14}`, true},
		{`{"kind":"autotune","preset":"pops","scale":5.2}`, false},
		{`{"kind":"autotune","preset":"thor","scale":16}`, false},
		{`{"kind":"run","preset":"pops","scale":16}`, true},
		{`{"kind":"sweep","preset":"pops","scale":16,"machines":[{}]}`, true},
	} {
		_, err := DecodeConfig([]byte(tc.doc))
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.doc, err)
		}
		if !tc.ok {
			var je *Error
			if !asJobsError(err, &je) || je.Field != "scale" {
				t.Errorf("%s: got %v, want a rejection of \"scale\"", tc.doc, err)
			}
		}
	}
}

// TestAutotuneChunkIgnored decodes a document naming the retired "chunk"
// field and keeps it in the canonical bytes, so a job parked with one
// still restores as it was.
func TestAutotuneChunkIgnored(t *testing.T) {
	cfg, err := DecodeConfig([]byte(`{"kind":"autotune","preset":"pops","autotune":{"shards":2,"chunk":4,"margin":0.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	const want = `"autotune":{"shards":2,"chunk":4,"margin":0.5}`
	if got := cfg.Canonical(); !bytes.Contains(got, []byte(want)) {
		t.Errorf("canonical form %s lacks %s", got, want)
	}
}
