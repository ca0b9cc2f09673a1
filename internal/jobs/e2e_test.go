package jobs_test

// End-to-end lifecycle tests for the job service: a real Manager behind a
// real HTTP server, driven through the client package — the same path
// cmd/vrsimd serves. Everything here runs under -race in CI.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/jobs/client"
)

// startService stands up a Manager + Server + HTTP listener and registers
// teardown in dependency order (listener, streams, pool) followed by a
// goroutine-leak check.
func startService(t *testing.T, opt jobs.Options) *client.Client {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	m, err := jobs.Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := jobs.NewServer(m)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
		if err := m.Close(); err != nil {
			t.Errorf("Manager.Close: %v", err)
		}
		if err := jobs.VerifyNoLeaks(5 * time.Second); err != nil {
			t.Error(err)
		}
	})
	return client.New(ts.URL)
}

func submitWait(t *testing.T, c *client.Client, config string) jobs.Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.Submit(ctx, []byte(config))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err = c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("Wait(%s): %v", st.ID, err)
	}
	return st
}

func TestRunJobLifecycle(t *testing.T) {
	c := startService(t, jobs.Options{Workers: 2, ProgressEvery: 5000})
	st := submitWait(t, c, `{"kind":"run","preset":"pops","scale":0.05}`)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if st.Records == 0 || st.Refs == 0 || st.Refs != st.TotalRefs {
		t.Errorf("progress = %d records, %d/%d refs; want full", st.Records, st.Refs, st.TotalRefs)
	}
	if st.Window == nil {
		t.Error("no progress window reached the status")
	}

	report, err := c.Report(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(report, &doc); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	for _, key := range []string{"machine", "references", "l1", "l2", "bus"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report lacks %q section", key)
		}
	}
	if _, ok := doc["probe"]; ok {
		t.Error("report includes the ephemeral progress probe; it must not")
	}
}

func TestTimedRunJob(t *testing.T) {
	c := startService(t, jobs.Options{Workers: 2})
	st := submitWait(t, c,
		`{"kind":"run","preset":"pops","scale":0.03,"timed":true,"params":{"tm":30}}`)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	report, err := c.Report(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(report, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["timing"]; !ok {
		t.Error("timed run report lacks the timing section")
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	c := startService(t, jobs.Options{Workers: 2})
	st := submitWait(t, c, `{
		"kind": "sweep", "preset": "thor", "scale": 0.03,
		"machines": [
			{"org": "vr"},
			{"org": "rr", "l1Assoc": 2},
			{"label": "big-l2", "org": "vr", "l2Size": 524288}
		]}`)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	report, err := c.Report(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	var doc jobs.SweepReport
	if err := json.Unmarshal(report, &doc); err != nil {
		t.Fatalf("sweep report: %v", err)
	}
	if len(doc.Configs) != 3 {
		t.Fatalf("sweep report has %d configs, want 3", len(doc.Configs))
	}
	if doc.Configs[2].Label != "big-l2" {
		t.Errorf("label = %q, want the submitted label", doc.Configs[2].Label)
	}
	for i, cr := range doc.Configs {
		if cr.Results.Refs == 0 {
			t.Errorf("config %d simulated no references", i)
		}
	}
}

func TestAutotuneJobLifecycle(t *testing.T) {
	c := startService(t, jobs.Options{Workers: 2})
	st := submitWait(t, c, `{
		"kind": "autotune", "preset": "pops", "scale": 0.02,
		"autotune": {
			"exhaustive": true,
			"grammar": {
				"organizations": ["vr", "rr"],
				"l1Sizes": [16384], "l2Sizes": [262144]
			}}}`)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	report, err := c.Report(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	var doc struct {
		Candidates int `json:"candidates"`
		Frontier   []struct {
			Label string `json:"label"`
		} `json:"frontier"`
	}
	if err := json.Unmarshal(report, &doc); err != nil {
		t.Fatalf("autotune report: %v", err)
	}
	if doc.Candidates != 2 {
		t.Errorf("candidates = %d, want 2", doc.Candidates)
	}
	if len(doc.Frontier) == 0 {
		t.Error("empty frontier")
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	c := startService(t, jobs.Options{Workers: 1})
	cases := []struct {
		name   string
		config string
		field  string // expected Error.Field ("" = any)
	}{
		{"empty", ``, ""},
		{"not json", `not a json document`, ""},
		{"trailing data", `{"kind":"run","preset":"pops"} {"more":1}`, ""},
		{"unknown field", `{"kind":"run","preset":"pops","bogus":1}`, ""},
		{"missing kind", `{"preset":"pops"}`, "kind"},
		{"unknown kind", `{"kind":"walk","preset":"pops"}`, "kind"},
		{"bad preset", `{"kind":"run","preset":"doom"}`, "preset"},
		{"negative scale", `{"kind":"run","preset":"pops","scale":-1}`, "scale"},
		{"huge scale", `{"kind":"run","preset":"pops","scale":1e9}`, "scale"},
		{"bad deadline", `{"kind":"run","preset":"pops","deadline":"soon"}`, "deadline"},
		{"params without timed", `{"kind":"run","preset":"pops","params":{"tm":30}}`, "params"},
		{"run with machines", `{"kind":"run","preset":"pops","machines":[{}]}`, "machines"},
		{"sweep without machines", `{"kind":"sweep","preset":"pops"}`, "machines"},
		{"sweep with machine", `{"kind":"sweep","preset":"pops","machine":{}}`, "machine"},
		{"autotune with timed", `{"kind":"autotune","preset":"pops","timed":true}`, "timed"},
		{"bad org", `{"kind":"run","preset":"pops","machine":{"org":"psycho"}}`, "machine.org"},
		{"bad policy", `{"kind":"run","preset":"pops","machine":{"policy":"clock"}}`, "machine.policy"},
		{"illegal geometry", `{"kind":"run","preset":"pops","machine":{"l1Size":12345}}`, "machine"},
		{"l1 not below l2", `{"kind":"run","preset":"pops","machine":{"l1Size":1048576,"l2Size":65536}}`, "machine"},
		{"oversized cache", `{"kind":"run","preset":"pops","machine":{"l1Size":1073741824}}`, "machine.l1Size"},
		{"bad block ratio", `{"kind":"run","preset":"pops","machine":{"l1Block":16,"l2Block":24}}`, "machine.l2Block"},
		{"split no-inclusion", `{"kind":"run","preset":"pops","machine":{"org":"rrnoincl","split":true}}`, "machine"},
		{"split half too small", `{"kind":"run","preset":"pops","machine":{"l1Size":16,"split":true}}`, "machine"},
		{"sweep over limit", func() string {
			ms := make([]string, 65)
			for i := range ms {
				ms[i] = "{}"
			}
			return fmt.Sprintf(`{"kind":"sweep","preset":"pops","machines":[%s]}`, strings.Join(ms, ","))
		}(), "machines"},
		{"grammar axis too long", fmt.Sprintf(
			`{"kind":"autotune","preset":"pops","autotune":{"grammar":{"l1Sizes":[%s]}}}`,
			intList(33)), "autotune.grammar.l1Sizes"},
		{"grammar cross-product blowup", fmt.Sprintf(
			`{"kind":"autotune","preset":"pops","autotune":{"grammar":{"l1Sizes":[%s],"l2Sizes":[%s],"tlbEntries":[%s]}}}`,
			intList(32), intList(32), intList(32)), "autotune.grammar"},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Submit(ctx, []byte(tc.config))
			if err == nil {
				t.Fatal("accepted")
			}
			var je *jobs.Error
			if !errors.As(err, &je) {
				t.Fatalf("error is not the structured document: %v", err)
			}
			if tc.field != "" && je.Field != tc.field {
				t.Errorf("field = %q (%s), want %q", je.Field, je.Msg, tc.field)
			}
			if !strings.Contains(err.Error(), "400") {
				t.Errorf("status in %q is not 400", err)
			}
		})
	}
	// Nothing was admitted.
	sts, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 0 {
		t.Errorf("%d jobs admitted from invalid configs", len(sts))
	}
}

func TestCancelMidRun(t *testing.T) {
	c := startService(t, jobs.Options{Workers: 1, ProgressEvery: 2000})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := c.Submit(ctx, []byte(`{"kind":"run","preset":"pops","scale":2}`))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for real progress so the cancel lands mid-simulation.
	for {
		cur, err := c.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Records > 0 {
			break
		}
		if jobs.Terminal(cur.State) {
			t.Fatalf("job reached %s before it could be canceled", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if final.Refs == final.TotalRefs {
		t.Error("job ran to completion despite the cancel")
	}
	// A canceled job has no report; the API says 404.
	if _, err := c.Report(ctx, st.ID); err == nil {
		t.Error("canceled job served a report")
	}
	// Canceling a terminal job is a conflict, not a crash.
	if _, err := c.Cancel(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("second cancel: %v, want a 409", err)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	c := startService(t, jobs.Options{Workers: 1})
	st := submitWait(t, c, `{"kind":"run","preset":"pops","scale":4,"deadline":"50ms"}`)
	if st.State != jobs.StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("error = %q, want a deadline message", st.Error)
	}
}

func TestQueueSaturation(t *testing.T) {
	c := startService(t, jobs.Options{Workers: 1, QueueLimit: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	long := `{"kind":"run","preset":"pops","scale":2}`

	// First job occupies the lone worker...
	first, err := c.Submit(ctx, []byte(long))
	if err != nil {
		t.Fatal(err)
	}
	for {
		cur, err := c.Status(ctx, first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == jobs.StateRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// ...the next two fill the admission queue...
	var queued []string
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, []byte(long))
		if err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
		queued = append(queued, st.ID)
	}
	// ...and the pool is saturated: 503, not an admission.
	_, err = c.Submit(ctx, []byte(long))
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("saturated submit: %v, want a 503", err)
	}
	// Cancel everything; the rejected job must not have left a record.
	for _, id := range append([]string{first.ID}, queued...) {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Errorf("Cancel(%s): %v", id, err)
		}
	}
	sts, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 {
		t.Errorf("%d jobs on record, want 3 (the 503 must not admit)", len(sts))
	}
}

func TestProgressEvents(t *testing.T) {
	c := startService(t, jobs.Options{Workers: 1, ProgressEvery: 5000})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := c.Submit(ctx, []byte(`{"kind":"run","preset":"pops","scale":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	var events []jobs.Status
	last, err := c.Events(ctx, st.ID, func(s jobs.Status) { events = append(events, s) })
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if last.State != jobs.StateDone {
		t.Fatalf("final event state = %s (%s), want done", last.State, last.Error)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Records < events[i-1].Records {
			t.Errorf("records went backwards: %d then %d", events[i-1].Records, events[i].Records)
		}
	}
	// Streaming an unknown job is a 404.
	if _, err := c.Events(ctx, "j999999", nil); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("events for unknown job: %v, want a 404", err)
	}
}

func TestFleetMetrics(t *testing.T) {
	c := startService(t, jobs.Options{Workers: 3})
	ctx := context.Background()
	st := submitWait(t, c, `{"kind":"run","preset":"pops","scale":0.02}`)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"vrsimd_workers 3",
		"vrsimd_queue_depth 0",
		`vrsimd_jobs_lifecycle_total{event="submitted"} 1`,
		`vrsimd_jobs_lifecycle_total{event="done"} 1`,
		`vrsimd_jobs{state="done"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics lack %q:\n%s", want, text)
		}
	}
}

func TestHTTPSurface(t *testing.T) {
	c := startService(t, jobs.Options{Workers: 1})
	base := strings.TrimSuffix(httpBase(c), "/")
	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodGet, "/", http.StatusOK},
		{http.MethodGet, "/nope", http.StatusNotFound},
		{http.MethodGet, "/jobs/j000042", http.StatusNotFound},
		{http.MethodGet, "/jobs/j000042/report", http.StatusNotFound},
		{http.MethodDelete, "/jobs/j000042", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
	}
	// An unfinished job's report is a conflict, not a 404.
	ctx := context.Background()
	st, err := c.Submit(ctx, []byte(`{"kind":"run","preset":"pops","scale":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("report of unfinished job = %d, want 409", resp.StatusCode)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
}

func httpBase(c *client.Client) string { return c.Base() }

// intList renders "1,2,4,..." with n power-of-two entries, for building
// oversized grammar axes.
func intList(n int) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprint(uint64(1) << (i % 20))
	}
	return strings.Join(vals, ",")
}
