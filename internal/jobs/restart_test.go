package jobs_test

// Restart-resume equivalence: a daemon shut down mid-job and reopened on
// the same state directory must finish every in-flight job with a report
// byte-identical to an uninterrupted run's. Run and sweep jobs resume from
// their checkpoint container; autotune jobs re-run their deterministic
// search. These tests drive the Manager directly (no HTTP) — the daemon's
// SIGTERM path is the same Close, exercised end-to-end by ci.sh's smoke.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/tsdb"
)

const (
	restartRunConfig = `{"kind":"run","preset":"pops","scale":0.15,"timed":true}`

	restartSweepConfig = `{
		"kind": "sweep", "preset": "thor", "scale": 0.1,
		"machines": [{"org": "vr"}, {"org": "rr", "l2Size": 524288}]}`

	restartAutotuneConfig = `{
		"kind": "autotune", "preset": "pops", "scale": 0.05,
		"autotune": {
			"exhaustive": true,
			"grammar": {"organizations": ["vr", "rr"], "l1Assocs": [1, 2]}}}`
)

// managerOptions keeps the checkpoint cadence small so an interrupt lands
// between checkpoints, not before the first one.
func managerOptions(dir string) jobs.Options {
	return jobs.Options{Dir: dir, Workers: 2, CheckpointEvery: 20000, ProgressEvery: 5000}
}

func waitDone(t *testing.T, m *jobs.Manager, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if jobs.Terminal(st.State) {
			if st.State != jobs.StateDone {
				t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 2m", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// finished returns a done job's report and persisted time-series (none for
// autotune jobs, which report no progress windows).
func finished(t *testing.T, m *jobs.Manager, id string) ([]byte, []tsdb.Sample) {
	t.Helper()
	report, err := m.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	series, err := m.Timeseries(id, tsdb.Query{})
	if err != nil && !errors.Is(err, tsdb.ErrNoSeries) {
		t.Fatal(err)
	}
	return report, series
}

// uninterruptedRun runs the job to completion in one daemon lifetime.
func uninterruptedRun(t *testing.T, config string) ([]byte, []tsdb.Sample) {
	t.Helper()
	m, err := jobs.Open(managerOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit([]byte(config))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)
	return finished(t, m, st.ID)
}

// interruptedRun starts the job, shuts the manager down mid-run (the
// daemon-restart path: in-flight jobs park with a final checkpoint and stay
// persisted as running), reopens the same state directory, and returns the
// resumed job's report and time-series.
func interruptedRun(t *testing.T, config string, wantResume bool) ([]byte, []tsdb.Sample) {
	t.Helper()
	dir := t.TempDir()
	m1, err := jobs.Open(managerOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit([]byte(config))
	if err != nil {
		t.Fatal(err)
	}
	// Let the job make real progress before pulling the plug, so the resume
	// genuinely continues from a mid-run snapshot. Autotune jobs expose no
	// mid-search progress; for them any moment inside the search will do.
	if wantResume {
		deadline := time.Now().Add(time.Minute)
		for {
			cur, _ := m1.Get(st.ID)
			if cur.Records > 25000 {
				break
			}
			if jobs.Terminal(cur.State) {
				t.Fatalf("job finished (%s) before the shutdown; grow the workload", cur.State)
			}
			if time.Now().After(deadline) {
				t.Fatal("no progress after 1m")
			}
			time.Sleep(time.Millisecond)
		}
	} else {
		for {
			cur, _ := m1.Get(st.ID)
			if cur.State == jobs.StateRunning || jobs.Terminal(cur.State) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jobs.VerifyNoLeaks(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The job must have parked, not finished, or the test proves nothing.
	if cur, _ := m1.Get(st.ID); wantResume && cur.State != jobs.StateRunning {
		t.Fatalf("job is %s after shutdown, want parked as running", cur.State)
	}

	m2, err := jobs.Open(managerOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	fin := waitDone(t, m2, st.ID)
	if wantResume && !fin.Resumed {
		t.Error("final status does not mark the job as resumed")
	}
	if m2.Counters().Resumed == 0 {
		t.Error("fleet counters do not record the resume")
	}
	return finished(t, m2, st.ID)
}

func testRestartEquivalence(t *testing.T, config string, wantResume bool) {
	t.Helper()
	want, _ := uninterruptedRun(t, config)
	got, _ := interruptedRun(t, config, wantResume)
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed report differs from uninterrupted report:\n--- uninterrupted (%d bytes)\n%.2000s\n--- resumed (%d bytes)\n%.2000s",
			len(want), want, len(got), got)
	}
}

func TestRestartResumeRun(t *testing.T) {
	testRestartEquivalence(t, restartRunConfig, true)
}

func TestRestartResumeSweep(t *testing.T) {
	testRestartEquivalence(t, restartSweepConfig, true)
}

func TestRestartResumeAutotune(t *testing.T) {
	// The search is not interruptible mid-flight: the shutdown discards its
	// result, the spec stays running, and the reopened daemon re-runs the
	// deterministic search from scratch.
	testRestartEquivalence(t, restartAutotuneConfig, false)
}

// testSeriesEquivalence: a parked and resumed job persists the same
// time-series as the uninterrupted run, window for window. Every event
// reaches the window collector before the parking checkpoint is written, and
// the window open at the checkpoint cursor travels in the container, so the
// resumed lifetime finishes that window instead of restarting it from zero.
func testSeriesEquivalence(t *testing.T, config string) {
	t.Helper()
	_, want := uninterruptedRun(t, config)
	_, got := interruptedRun(t, config, true)
	if len(want) == 0 {
		t.Fatal("uninterrupted run persisted no windows")
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("resumed series has %d windows, uninterrupted has %d", len(got), len(want))
	}
	wrong := 0
	for i := range want {
		if got[i] != want[i] {
			if wrong < 3 {
				t.Errorf("window %d:\n resumed       %+v\n uninterrupted %+v", i, got[i], want[i])
			}
			wrong++
		}
	}
	t.Fatalf("%d of %d windows differ after the resume", wrong, len(want))
}

func TestRestartSeriesEquivalenceRun(t *testing.T) {
	testSeriesEquivalence(t, restartRunConfig)
}

func TestRestartSeriesEquivalenceSweep(t *testing.T) {
	testSeriesEquivalence(t, restartSweepConfig)
}

// TestRestartRejectsOldContainer: a parked job whose checkpoint container
// carries the layout without the open window (magic VRJOBS1) fails on
// resume with a bad-magic error instead of misreading the container.
func TestRestartRejectsOldContainer(t *testing.T) {
	dir := t.TempDir()
	m1, err := jobs.Open(managerOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit([]byte(restartRunConfig))
	if err != nil {
		t.Fatal(err)
	}
	for {
		cur, _ := m1.Get(st.ID)
		if cur.Records > 0 {
			break
		}
		if jobs.Terminal(cur.State) {
			t.Fatalf("job finished (%s) before the shutdown", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jobs.VerifyNoLeaks(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, st.ID+".ck")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("parked job left no container: %v", err)
	}
	copy(data, "VRJOBS1\n")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := jobs.Open(managerOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	deadline := time.Now().Add(time.Minute)
	for {
		cur, _ := m2.Get(st.ID)
		if jobs.Terminal(cur.State) {
			if cur.State != jobs.StateFailed || !strings.Contains(cur.Error, "bad checkpoint magic") {
				t.Fatalf("job resumed from an old container: %s (%q)", cur.State, cur.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 1m", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartPreservesQueuedJobs: jobs admitted but never started survive a
// restart in submission order.
func TestRestartPreservesQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	opt := jobs.Options{Dir: dir, Workers: 1, CheckpointEvery: 20000}
	m1, err := jobs.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	// One long job occupies the worker; two quick ones queue behind it.
	blocker, err := m1.Submit([]byte(`{"kind":"run","preset":"pops","scale":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	var queued []string
	for i := 0; i < 2; i++ {
		st, err := m1.Submit([]byte(`{"kind":"run","preset":"pops","scale":0.02}`))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, st.ID)
	}
	for {
		cur, _ := m1.Get(blocker.ID)
		if cur.State == jobs.StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := jobs.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	waitDone(t, m2, blocker.ID)
	for _, id := range queued {
		st := waitDone(t, m2, id)
		if st.Refs != st.TotalRefs {
			t.Errorf("queued job %s finished with %d/%d refs", id, st.Refs, st.TotalRefs)
		}
	}
	if got := len(m2.List()); got != 3 {
		t.Errorf("recovered registry has %d jobs, want 3", got)
	}
}

// TestRestartStaleSpecs: a state directory holding specs that no longer
// validate (autotune jobs past the in-memory trace bound, written by a
// daemon that admitted them) still opens. The finished job's report stays
// served; the queued job fails with the bound's message and never runs,
// and a later daemon reads that failure back.
func TestRestartStaleSpecs(t *testing.T) {
	dir := t.TempDir()
	const stale = `{"kind":"autotune","preset":"pops","scale":16}`
	files := map[string]string{
		"j000001.spec.json":   `{"id":"j000001","seq":1,"state":"done","submitted":"2026-01-02T03:04:05Z","config":` + stale + `}`,
		"j000001.report.json": `{"workload":"pops","frontier":[]}`,
		"j000002.spec.json":   `{"id":"j000002","seq":2,"state":"queued","submitted":"2026-01-02T03:04:06Z","config":` + stale + `}`,
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const bound = "exceed the 16777216 an autotune job holds in memory"
	for life := 0; life < 2; life++ {
		m, err := jobs.Open(managerOptions(dir))
		if err != nil {
			t.Fatalf("lifetime %d: %v", life, err)
		}
		if st, _ := m.Get("j000002"); st.State != jobs.StateFailed || st.Kind != jobs.KindAutotune || !strings.Contains(st.Error, bound) {
			t.Errorf("lifetime %d: queued stale job is %s %s (%q), want a failed autotune job", life, st.Kind, st.State, st.Error)
		}
		if st, _ := m.Get("j000001"); st.State != jobs.StateDone {
			t.Errorf("lifetime %d: finished stale job is %s", life, st.State)
		}
		if report, err := m.Report("j000001"); err != nil || string(report) != files["j000001.report.json"] {
			t.Errorf("lifetime %d: finished stale job's report %q, %v", life, report, err)
		}
		if got, want := m.Counters().Failed, uint64(1-life); got != want {
			t.Errorf("lifetime %d: %d failures counted, want %d", life, got, want)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartFinishesReportedJob: a daemon that crashed after writing a
// job's report but before persisting its spec leaves a running spec, the
// report and the job's checkpoint. The next daemon finishes the job: the
// spec on disk says done, the checkpoint is gone and the job counts once;
// a later daemon reads that back and counts nothing.
func TestRestartFinishesReportedJob(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"j000001.spec.json":   `{"id":"j000001","seq":1,"state":"running","submitted":"2026-01-02T03:04:05Z","config":{"kind":"run","preset":"pops","scale":0.01}}`,
		"j000001.report.json": `{"workload":"pops"}`,
		"j000001.ck":          "checkpoint",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for life := 0; life < 2; life++ {
		m, err := jobs.Open(managerOptions(dir))
		if err != nil {
			t.Fatalf("lifetime %d: %v", life, err)
		}
		if st, _ := m.Get("j000001"); st.State != jobs.StateDone {
			t.Errorf("lifetime %d: reported job is %s, want done", life, st.State)
		}
		var spec struct{ State string }
		if data, err := os.ReadFile(filepath.Join(dir, "j000001.spec.json")); err != nil {
			t.Errorf("lifetime %d: %v", life, err)
		} else if err := json.Unmarshal(data, &spec); err != nil || spec.State != jobs.StateDone {
			t.Errorf("lifetime %d: spec on disk says %q (%v), want done", life, spec.State, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "j000001.ck")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("lifetime %d: checkpoint still on disk (%v)", life, err)
		}
		if report, err := m.Report("j000001"); err != nil || string(report) != files["j000001.report.json"] {
			t.Errorf("lifetime %d: report %q, %v", life, report, err)
		}
		if got, want := m.Counters().Done, uint64(1-life); got != want {
			t.Errorf("lifetime %d: %d jobs counted done, want %d", life, got, want)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
