package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
	"repro/internal/cycles"
	"repro/internal/jobs"
	"repro/internal/jobs/client"
	"repro/internal/report"
	"repro/internal/system"
	"repro/internal/tracegen"
)

// serviceSeed is the service workload's default seed. The jobs API takes no
// trace seed, so the seed only orders the job mix.
const serviceSeed = 1

// pollEvery is the fixed status-poll interval that detects job completion.
// client.Wait (50 ms) and the /events stream (100 ms) would round every
// latency to their step.
const pollEvery = 2 * time.Millisecond

// serviceSetups is how many times the set-up is timed; the median is
// reported.
const serviceSetups = 101

// mixJob is one entry of the service job mix.
type mixJob struct {
	name string
	cfg  jobs.Config
}

// jobMix is the service workload's fixed multiset of jobs: run and sweep
// jobs over all three presets, timed and untimed, two of them longer than
// the daemon's 200k-record checkpoint cadence. The seed permutes the order
// but never the multiset, so every seed asks for the same work. With 15
// jobs a round, the latency p50 and p90 over whole rounds fall in the
// middle of the 8th and 14th fastest jobs' own distributions, not on the
// edge between two of them.
func jobMix() []mixJob {
	m := func(org string, l1, l2 uint64, victim int) jobs.MachineSpec {
		return jobs.MachineSpec{Org: org, L1Size: l1, L2Size: l2, Victim: victim}
	}
	run := func(preset string, scale float64, timed bool, ms jobs.MachineSpec) jobs.Config {
		return jobs.Config{Kind: jobs.KindRun, Preset: preset, Scale: scale, Timed: timed, Machine: &ms}
	}
	sweep := func(preset string, scale float64, timed bool, ms ...jobs.MachineSpec) jobs.Config {
		return jobs.Config{Kind: jobs.KindSweep, Preset: preset, Scale: scale, Timed: timed, Machines: ms}
	}
	return []mixJob{
		{"run-pops-vr", run("pops", 0.01, false, m("vr", 0, 0, 0))},
		{"run-pops-rr-timed", run("pops", 0.01, true, m("rr", 0, 0, 0))},
		{"run-pops-rlt", run("pops", 0.01, false, m("rlt", 0, 0, 0))},
		{"run-thor-vr-timed", run("thor", 0.01, true, m("vr", 0, 0, 0))},
		{"run-thor-rrnoincl", run("thor", 0.01, false, m("rrnoincl", 0, 0, 0))},
		{"run-thor-vr-victim-timed", run("thor", 0.01, true, m("vr", 0, 0, 4))},
		{"run-abaqus-vr", run("abaqus", 0.03, false, m("vr", 0, 0, 0))},
		{"run-abaqus-rr-timed", run("abaqus", 0.03, true, m("rr", 0, 0, 0))},
		{"sweep-pops-3", sweep("pops", 0.01, false, m("vr", 0, 0, 0), m("rr", 0, 0, 0), m("rlt", 0, 0, 0))},
		{"sweep-pops-2-timed", sweep("pops", 0.01, true, m("rr", 0, 0, 0), m("rrnoincl", 0, 0, 0))},
		{"sweep-thor-2-timed", sweep("thor", 0.01, true, m("vr", 8<<10, 128<<10, 0), m("vr", 0, 0, 4))},
		{"sweep-thor-2", sweep("thor", 0.01, false, m("rlt", 0, 0, 0), m("vr", 32<<10, 512<<10, 0))},
		{"sweep-abaqus-2", sweep("abaqus", 0.03, false, m("vr", 0, 0, 0), m("rrnoincl", 0, 0, 0))},
		{"run-pops-vr-long", run("pops", 0.07, false, m("vr", 0, 0, 0))},
		{"sweep-abaqus-2-long-timed", sweep("abaqus", 0.2, true, m("vr", 0, 0, 0), m("rlt", 0, 0, 0))},
	}
}

// machines returns a mix job's machine specs in report order; a run job
// without one gets the daemon's paper-default machine.
func (j mixJob) machines() []jobs.MachineSpec {
	switch {
	case j.cfg.Machine != nil:
		return []jobs.MachineSpec{*j.cfg.Machine}
	case j.cfg.Kind == jobs.KindRun:
		return []jobs.MachineSpec{{}}
	}
	return j.cfg.Machines
}

// workload returns the job's trace configuration as the daemon derives it.
func (j mixJob) workload() (tracegen.Config, error) {
	wl, err := tracegen.PresetByName(j.cfg.Preset)
	if err != nil {
		return wl, err
	}
	if j.cfg.Scale != 0 && j.cfg.Scale != 1 {
		wl = wl.Scaled(j.cfg.Scale)
	}
	return wl, nil
}

// firstRefs is the references one machine of the job simulates; the
// daemon's progress probe and timeseries ride the first machine.
func (j mixJob) firstRefs() uint64 {
	wl, err := j.workload()
	if err != nil {
		return 0
	}
	return uint64(wl.TotalRefs)
}

// simRefs is the job's simulated references, summed over its machines.
func (j mixJob) simRefs() uint64 { return j.firstRefs() * uint64(len(j.machines())) }

// service is an in-process job daemon: a jobs.Manager behind jobs.Server on
// a loopback listener.
type service struct {
	m     *jobs.Manager
	srv   *jobs.Server
	http  *http.Server
	base  string
	dir   string
	serve chan error // Serve's return value
}

// setUpDaemon is the service's set-up: a manager opened on dir and a
// loopback listener for it.
func setUpDaemon(dir string, workers int) (*jobs.Manager, net.Listener, error) {
	m, err := jobs.Open(jobs.Options{Dir: dir, Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	return m, ln, nil
}

// timeSetUps times n set-ups of the daemon, each closed again before the
// next. All open the same state directory, so after the first (which
// creates it) each is a restart with nothing to recover: the time to create
// directories follows the state earlier runs left the file system in, and
// varies several-fold between runs. One set-up takes well under a
// millisecond, so its median needs many samples; and nothing else runs
// between them, as the goroutines a served request leaves behind would land
// in the next one.
func timeSetUps(dir string, n, workers int) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		m, ln, err := setUpDaemon(dir, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
		ln.Close()
		if err := m.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// openService sets up a daemon on dir, serves it, and returns once the
// server has answered a first request.
func openService(dir string, workers int) (*service, error) {
	m, ln, err := setUpDaemon(dir, workers)
	if err != nil {
		return nil, err
	}
	s := &service{m: m, srv: jobs.NewServer(m), base: "http://" + ln.Addr().String(), dir: dir, serve: make(chan error, 1)}
	s.http = &http.Server{Handler: s.srv}
	go func() { s.serve <- s.http.Serve(ln) }()
	resp, err := http.Get(s.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the listener, waits for Serve to return, and closes the
// manager (which waits for its workers).
func (s *service) close() error {
	s.srv.Close()
	err := s.http.Close()
	if serr := <-s.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if merr := s.m.Close(); err == nil {
		err = merr
	}
	return err
}

// jobRecord is what one client saw of one job.
type jobRecord struct {
	seq       int // position in the closed loop's job sequence
	mix       int // index into the mix
	id        string
	err       error
	queueWait time.Duration // submit returned → first status showing it running
	run       time.Duration // first running status → first terminal status
	latency   time.Duration // submit → report received
	polls     int
	series    uint64    // references covered by the job's timeseries samples
	digest    [32]byte  // SHA-256 of the report document
	done      time.Time // when the report arrived
}

// serviceHalf is one half's closed loop: each client submits the next job
// of the permuted mix, polls its status, fetches its report and its
// timeseries, then submits the next, until the budget is spent.
type serviceHalf struct {
	start   time.Time
	elapsed time.Duration
	recs    []jobRecord    // in completion order
	issued  int            // jobs submitted, the last round possibly partial
	reports map[int][]byte // one report document per mix index
}

func (b *bench) runServiceHalf(svc *service, mix []mixJob, order []int, t *tracer) (*serviceHalf, error) {
	bodies := make([][]byte, len(mix))
	for i, j := range mix {
		var err error
		if bodies[i], err = json.Marshal(j.cfg); err != nil {
			return nil, err
		}
	}
	budget := b.halfBudget()
	// The context bounds a wedged daemon: no job of the mix takes more than
	// a few seconds.
	ctx, cancel := context.WithTimeout(context.Background(), budget+time.Minute)
	defer cancel()
	h := &serviceHalf{start: time.Now(), reports: map[int][]byte{}}
	deadline := h.start.Add(budget)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < b.o.workers; c++ {
		cl := client.New(svc.base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				mi := order[k%len(order)]
				rec, doc := runJob(ctx, cl, t, k, mi, bodies[mi])
				mu.Lock()
				h.recs = append(h.recs, rec)
				if _, ok := h.reports[mi]; !ok && doc != nil {
					h.reports[mi] = doc
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	h.elapsed = time.Since(h.start)
	h.issued = int(next.Load())
	return h, nil
}

// runJob drives one job through the HTTP API and returns what the client
// saw, plus the report document when the job finished.
func runJob(ctx context.Context, cl *client.Client, t *tracer, k, mi int, body []byte) (jobRecord, []byte) {
	rec := jobRecord{seq: k, mix: mi}
	t0 := time.Now()
	job := t.begin(k, 0, spanJob)
	defer t.end(job)

	id := t.begin(k, job, spanSubmit)
	st, err := cl.Submit(ctx, body)
	t.end(id)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec, nil
	}
	rec.id = st.ID
	submitted := time.Now()
	var running time.Time
	for {
		id := t.begin(k, job, spanStatus)
		st, err = cl.Status(ctx, rec.id)
		t.end(id)
		rec.polls++
		now := time.Now()
		if err != nil {
			rec.err = fmt.Errorf("status: %w", err)
			return rec, nil
		}
		if st.State == jobs.StateRunning && running.IsZero() {
			running = now
		}
		if jobs.Terminal(st.State) {
			if running.IsZero() {
				running = now
			}
			rec.queueWait, rec.run = running.Sub(submitted), now.Sub(running)
			break
		}
		time.Sleep(pollEvery)
	}
	if st.State != jobs.StateDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", rec.id, st.State, st.Error)
		return rec, nil
	}

	id = t.begin(k, job, spanReport)
	doc, err := cl.Report(ctx, rec.id)
	t.end(id)
	rec.latency = time.Since(t0)
	rec.done = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("report: %w", err)
		return rec, nil
	}
	rec.digest = sha256.Sum256(doc)

	id = t.begin(k, job, spanTimeser)
	ts, err := cl.Timeseries(ctx, rec.id, client.TimeseriesQuery{})
	t.end(id)
	if err != nil {
		rec.err = fmt.Errorf("timeseries: %w", err)
		return rec, doc
	}
	for _, p := range ts.Samples {
		rec.series += p.Refs()
	}
	return rec, doc
}

// ok reports whether the client saw the job through without error.
func (r *jobRecord) ok() bool { return r.err == nil }

// recordServiceEndToEnd records the end-to-end metrics of a half. Latency
// quantiles cover whole rounds of the mix only, so every job of the mix
// weighs the same in them; wall_s is the median time the loop takes to
// complete one round's worth of jobs.
func (b *bench) recordServiceEndToEnd(h *serviceHalf, mix []mixJob, setups []time.Duration) {
	whole := h.issued / len(mix) * len(mix)
	if whole == 0 {
		whole = h.issued
	}
	var lat []float64
	var done []time.Time
	var refs uint64
	for _, r := range h.recs {
		if !r.ok() {
			continue
		}
		if r.seq < whole {
			lat = append(lat, float64(r.latency)/float64(time.Millisecond))
		}
		done = append(done, r.done)
		refs += mix[r.mix].simRefs()
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var rounds []float64
	prev := h.start
	for i := len(mix) - 1; i < len(done); i += len(mix) {
		rounds = append(rounds, done[i].Sub(prev).Seconds())
		prev = done[i]
	}
	if len(rounds) == 0 {
		rounds = []float64{h.elapsed.Seconds()}
	}
	b.set("refs_per_s", float64(refs)/h.elapsed.Seconds())
	b.set("wall_s", median(rounds))
	b.set("setup_s", median(seconds(setups)))
	b.set("peak_rss_mb", peakRSSMB())
	b.set("job_latency_p50_ms", quantile(lat, 0.5))
	b.set("job_latency_p90_ms", quantile(lat, 0.9))
	b.set("jobs_per_s", float64(len(done))/h.elapsed.Seconds())
	p90, beyond := quantile(lat, 0.9), 0
	for _, l := range lat {
		if l > p90 {
			beyond++
		}
	}
	su := millis(setups)
	b.logf("jobs %d done in %.3fs (%d whole rounds of the mix), %d beyond p90; %d set-ups, quartiles %.3f %.3f %.3f ms",
		len(done), h.elapsed.Seconds(), len(rounds), beyond, len(su), quantile(su, 0.25), quantile(su, 0.5), quantile(su, 0.75))
	perJob := map[int][]float64{}
	for _, r := range h.recs {
		if r.ok() {
			perJob[r.mix] = append(perJob[r.mix], float64(r.latency)/float64(time.Millisecond))
		}
	}
	for mi, j := range mix {
		b.logf("  %-28s %4d jobs, p50 %8.2f ms", j.name, len(perJob[mi]), median(perJob[mi]))
	}
}

func (b *bench) service() error {
	mix := b.mix
	order := rand.New(rand.NewSource(b.o.seed)).Perm(len(mix))
	names := make([]string, len(order))
	for i, mi := range order {
		names[i] = mix[mi].name
	}
	b.logf("# service: %d clients, %d job workers, poll every %v, mix order %s",
		b.o.workers, b.o.workers, pollEvery, strings.Join(names, " "))

	root := filepath.Join(b.o.stateDir, fmt.Sprintf("service-%d", os.Getpid()))
	defer os.RemoveAll(root)
	setups, err := timeSetUps(filepath.Join(root, "setup"), serviceSetups, b.o.workers)
	if err != nil {
		return err
	}
	svc, err := openService(filepath.Join(root, "serve"), b.o.workers)
	if err != nil {
		return err
	}
	halves := []*serviceHalf{}
	untraced, err := b.runServiceHalf(svc, mix, order, nil)
	if err != nil {
		svc.close()
		return err
	}
	halves = append(halves, untraced)
	var t *tracer
	var traced *serviceHalf
	if b.o.trace {
		t = b.newTracer()
		if traced, err = b.runServiceHalf(svc, mix, order, t); err != nil {
			svc.close()
			return err
		}
		halves = append(halves, traced)
	}
	if err := svc.close(); err != nil {
		return err
	}

	b.recordServiceEndToEnd(untraced, mix, setups)
	if b.o.trace {
		jobsPerS := b.metrics["jobs_per_s"].Value
		wall := b.metrics["wall_s"].Value
		b.zeroLayers()
		b.recordServiceEndToEnd(traced, mix, setups)
		b.set("trace.overhead_wall_s", b.metrics["wall_s"].Value-wall)
		b.set("trace.overhead_jobs_per_s", b.metrics["jobs_per_s"].Value-jobsPerS)
		b.serviceLayers(t.snapshot(), traced, mix, svc)
	}
	return b.verifyService(halves, mix)
}

// serviceLayers records the service per-layer metrics of the traced half:
// client-side call times (p50 of their spans), the poller's queue-wait and
// run times, run time per simulated reference, polls per job, and — from
// the state directory — the bytes and checkpoints of one job of each mix
// entry.
func (b *bench) serviceLayers(spans []span, h *serviceHalf, mix []mixJob, svc *service) {
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur())/float64(time.Millisecond))
	}
	b.set("jobs.submit_ms", median(byName[spanSubmit]))
	b.set("jobs.report_ms", median(byName[spanReport]))
	b.set("tsdb.query_ms", median(byName[spanTimeser]))
	var queue, run []float64
	var runNS float64
	var refs uint64
	polls := 0
	first := map[int]string{} // mix index → the id of its first finished job
	for _, r := range h.recs {
		if !r.ok() {
			continue
		}
		queue = append(queue, float64(r.queueWait)/float64(time.Millisecond))
		run = append(run, float64(r.run)/float64(time.Millisecond))
		runNS += float64(r.run)
		refs += mix[r.mix].simRefs()
		polls += r.polls
		if _, ok := first[r.mix]; !ok {
			first[r.mix] = r.id
		}
	}
	b.set("jobs.queue_wait_ms", median(queue))
	b.set("jobs.run_ms", median(run))
	if refs > 0 {
		b.set("jobs.run_ns_per_ref", runNS/float64(refs))
	}
	if len(run) > 0 {
		b.set("jobs.status_polls_per_job", float64(polls)/float64(len(run)))
	}
	if len(first) == len(mix) {
		bytes, captures, err := stateOf(svc, first)
		if err != nil {
			b.logf("note: state directory: %v", err)
		}
		b.set("jobs.state_bytes", float64(bytes)/float64(len(mix)))
		b.set("checkpoint.captures", float64(captures))
	}
}

// stateOf measures the jobs ids left in the state directory: the bytes of
// every file named after them except the spec (whose submit timestamp
// varies), and the checkpoint spans recorded in their lifecycle traces.
func stateOf(svc *service, ids map[int]string) (bytes int64, captures int, err error) {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
		n, err := checkpointSpans(svc.m.TracePath(id))
		if err != nil {
			return 0, 0, err
		}
		captures += n
	}
	err = filepath.WalkDir(svc.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		id, _, _ := strings.Cut(name, ".")
		if want[id] && !strings.HasSuffix(name, ".spec.json") {
			info, err := d.Info()
			if err != nil {
				return err
			}
			bytes += info.Size()
		}
		return nil
	})
	return bytes, captures, err
}

// checkpointSpans counts the "checkpoint" spans of a job's OTLP trace file.
func checkpointSpans(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					Name string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	n := 0
	for _, rs := range doc.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, s := range ss.Spans {
				if s.Name == "checkpoint" {
					n++
				}
			}
		}
	}
	return n, nil
}

// verifyService checks every job outside the timed sections: it ended done,
// its timeseries covers every reference of its first machine, its report is byte-identical to every other
// report of the same mix entry, and that report's statistics equal the same
// machines run in-process without the service. Each failed job counts once.
func (b *bench) verifyService(halves []*serviceHalf, mix []mixJob) error {
	docs := map[int][]byte{}
	for _, h := range halves {
		for mi, doc := range h.reports {
			if _, ok := docs[mi]; !ok {
				docs[mi] = doc
			}
		}
	}
	var d digests
	bad := map[int]string{} // mix index → why its reports are wrong
	for mi := range mix {
		doc, ok := docs[mi]
		if !ok {
			continue
		}
		want, err := inProcess(mix[mi])
		if err != nil {
			return fmt.Errorf("%s in-process: %w", mix[mi].name, err)
		}
		got, err := canonicalReport(mix[mi], doc)
		if err != nil {
			bad[mi] = err.Error()
			continue
		}
		if got != want {
			bad[mi] = fmt.Sprintf("report digest %s, in-process run %s", got, want)
			continue
		}
		if why := b.checkDigest(&d, "service/"+mix[mi].name, got); why != "" {
			bad[mi] = why
		}
	}
	for _, h := range halves {
		for _, r := range h.recs {
			b.attempted++
			switch {
			case !r.ok():
				b.fail("service %s (%s): %v", mix[r.mix].name, r.id, r.err)
			case r.series != mix[r.mix].firstRefs():
				b.fail("service %s (%s): timeseries covers %d references, the trace has %d",
					mix[r.mix].name, r.id, r.series, mix[r.mix].firstRefs())
			case r.digest != sha256.Sum256(docs[r.mix]):
				b.fail("service %s (%s): report differs from the same job's first report", mix[r.mix].name, r.id)
			case bad[r.mix] != "":
				b.fail("service %s (%s): %s", mix[r.mix].name, r.id, bad[r.mix])
			}
		}
	}
	b.printDigests(&d)
	return nil
}

// canonicalReport digests a job's report statistics: one report.Results
// per machine, build stamps dropped.
func canonicalReport(j mixJob, doc []byte) (string, error) {
	var results []report.Results
	if j.cfg.Kind == jobs.KindRun {
		var r report.Results
		if err := json.Unmarshal(doc, &r); err != nil {
			return "", fmt.Errorf("parse report: %w", err)
		}
		results = []report.Results{r}
	} else {
		var sr jobs.SweepReport
		if err := json.Unmarshal(doc, &sr); err != nil {
			return "", fmt.Errorf("parse sweep report: %w", err)
		}
		for _, c := range sr.Configs {
			results = append(results, c.Results)
		}
	}
	for i := range results {
		results[i].Build = nil
	}
	return digestOf(results)
}

// inProcess runs a mix job's machines in this process, without the
// service, and digests their statistics the way canonicalReport does.
func inProcess(j mixJob) (string, error) {
	wl, err := j.workload()
	if err != nil {
		return "", err
	}
	var results []report.Results
	for _, spec := range j.machines() {
		cfg, err := specConfig(spec, wl)
		if err != nil {
			return "", err
		}
		if j.cfg.Timed {
			p := cycles.DefaultParams()
			p.Contention = true // the daemon's default timing
			if cfg.Cycles, err = cycles.New(p, nil); err != nil {
				return "", err
			}
		}
		sys, err := newMachine(cfg, wl)
		if err != nil {
			return "", err
		}
		gen, err := tracegen.New(wl)
		if err != nil {
			return "", err
		}
		if err := sys.Run(gen); err != nil {
			return "", err
		}
		res := report.FromSystem(sys, sys.Config())
		res.Build = nil
		results = append(results, res)
	}
	return digestOf(results)
}

// specConfig builds a machine spec the way the daemon does: as a
// single-point autotune grammar with the paper defaults. The mix sets only
// the organization, the two level sizes and the victim cache.
func specConfig(m jobs.MachineSpec, wl tracegen.Config) (system.Config, error) {
	org := m.Org
	if org == "" {
		org = "vr"
	}
	g := autotune.Grammar{Organizations: []string{org}, VictimEntries: []int{m.Victim}}
	if m.L1Size != 0 {
		g.L1Sizes = []uint64{m.L1Size}
	}
	if m.L2Size != 0 {
		g.L2Sizes = []uint64{m.L2Size}
	}
	cands, err := g.Expand(wl.CPUs, 4096)
	if err != nil {
		return system.Config{}, err
	}
	if len(cands) != 1 {
		return system.Config{}, fmt.Errorf("machine %+v expands to %d candidates", m, len(cands))
	}
	return cands[0].Config, nil
}
