package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/probe"
	"repro/internal/tsdb"
)

// Job lifecycle states. A job moves queued → running → one of the three
// terminal states; a daemon shutdown leaves in-flight jobs persisted as
// running so the next Open resumes them from their latest checkpoint.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Terminal reports whether state is final.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Cancellation causes, distinguished through context.Cause: a user cancel
// terminates the job, a daemon shutdown parks it for resume.
var (
	errCanceled = errors.New("jobs: canceled by request")
	errShutdown = errors.New("jobs: daemon shutting down")
)

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity; clients should retry later (the HTTP layer maps it to 503).
var ErrQueueFull = errors.New("jobs: admission queue full")

// Status is one job's public state snapshot.
type Status struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	State     string    `json:"state"`
	Submitted time.Time `json:"submitted"`
	Error     string    `json:"error,omitempty"`

	// Progress: trace records applied, memory references simulated, and
	// the workload's total references. Resumed marks a job restored from a
	// checkpoint after a daemon restart.
	Records   uint64 `json:"records"`
	Refs      uint64 `json:"references"`
	TotalRefs uint64 `json:"totalRefs"`
	Resumed   bool   `json:"resumed,omitempty"`

	// Window is the latest closed progress window (probe windowed
	// metrics), present while a simulation job is running.
	Window *probe.WindowMetrics `json:"window,omitempty"`
}

// job is the manager's internal record.
type job struct {
	id        string
	seq       int
	cfg       *Config
	raw       json.RawMessage // canonical config bytes
	submitted time.Time

	mu        sync.Mutex
	state     string
	errMsg    string
	records   uint64
	refs      uint64
	total     uint64
	resumed   bool
	window    probe.WindowMetrics // latest closed window (valid when hasWindow)
	hasWindow bool
	cancel    context.CancelCauseFunc // set while running
	trace     *jobTrace               // set by the executor goroutine, read only by it
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Kind: j.cfg.Kind, State: j.state, Submitted: j.submitted,
		Error: j.errMsg, Records: j.records, Refs: j.refs, TotalRefs: j.total,
		Resumed: j.resumed,
	}
	if j.hasWindow {
		w := j.window
		st.Window = &w
	}
	return st
}

func (j *job) setProgress(records, refs uint64) {
	j.mu.Lock()
	j.records, j.refs = records, refs
	j.mu.Unlock()
}

// setWindow stores the latest closed window by value — it runs on the
// window-close path next to the simulation loop and must not allocate.
func (j *job) setWindow(w probe.WindowMetrics) {
	j.mu.Lock()
	j.window = w
	j.hasWindow = true
	j.mu.Unlock()
}

// Options configures a Manager. Dir is required; everything else has a
// serviceable default.
type Options struct {
	// Dir is the state directory: job specs, checkpoints and reports live
	// here, and a Manager opened on the same directory resumes its jobs.
	Dir string
	// Workers bounds concurrently running jobs (default GOMAXPROCS).
	Workers int
	// CheckpointEvery is the checkpoint cadence in trace records for
	// simulation jobs (default 200000; negative disables, 0 selects the
	// default). A checkpoint is also written when a shutdown interrupts a
	// running job, whatever the cadence.
	CheckpointEvery int64
	// ProgressEvery is the progress-window size in references (default
	// 20000): each closed window updates the job's Status.Window.
	ProgressEvery uint64
	// QueueLimit bounds jobs admitted but not yet running (default 1024).
	QueueLimit int
	// Logger receives the manager's structured log stream (every record
	// about a job carries a "job" attribute with its ID). Nil discards.
	Logger *slog.Logger
	// TimeseriesRetention bounds each job's persisted window samples
	// (default tsdb.DefaultRetention; the oldest fall off past the cap).
	TimeseriesRetention int
	// SpanSampleEvery is the in-sim reference-span sampling interval for
	// per-job OTLP traces: one reference in every N gets a full causal span
	// tree in the job's trace file. 0 selects the default (1<<20);
	// negative disables in-sim spans (lifecycle spans are always written).
	SpanSampleEvery int64
}

// defaultSpanSample keeps per-job trace files tiny by default: a sampled
// reference tree is a few hundred bytes, so even a maximum-size job emits
// no more than ~1<<10 of them.
const defaultSpanSample = 1 << 20

func (o *Options) applyDefaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 200000
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = 20000
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 1024
	}
	if o.Logger == nil {
		o.Logger = NopLogger()
	}
	if o.SpanSampleEvery == 0 {
		o.SpanSampleEvery = defaultSpanSample
	}
}

// Manager owns the job registry, the on-disk state and the worker pool.
type Manager struct {
	opt  Options
	ctx  context.Context
	stop context.CancelCauseFunc
	log  *slog.Logger
	tsdb *tsdb.DB

	mu      sync.Mutex
	jobs    map[string]*job
	seq     int
	stats   Counters
	closing bool
	qhist   monitor.Histogram // submit→start wait, milliseconds
	rhist   monitor.Histogram // start→terminal run time, milliseconds

	queue chan *job
	wg    sync.WaitGroup
}

// Counters are the fleet's monotonic totals since this Manager was opened.
type Counters struct {
	Submitted uint64 `json:"submitted"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Resumed   uint64 `json:"resumed"`
}

// Open creates (or reopens) a Manager on a state directory. Jobs persisted
// as queued or running by a previous daemon are re-admitted in submission
// order: simulation jobs resume from their latest checkpoint, autotune jobs
// re-run their deterministic search; either way the eventual report is
// byte-identical to an uninterrupted run.
func Open(opt Options) (*Manager, error) {
	opt.applyDefaults()
	if opt.Dir == "" {
		return nil, fmt.Errorf("jobs: Options.Dir is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancelCause(context.Background())
	db, err := tsdb.Open(filepath.Join(opt.Dir, "tsdb"), opt.TimeseriesRetention)
	if err != nil {
		stop(errShutdown)
		return nil, err
	}
	m := &Manager{
		opt:   opt,
		ctx:   ctx,
		stop:  stop,
		log:   opt.Logger,
		tsdb:  db,
		jobs:  make(map[string]*job),
		queue: make(chan *job, opt.QueueLimit),
	}
	if err := m.recover(); err != nil {
		stop(errShutdown)
		return nil, err
	}
	for w := 0; w < opt.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.log.Info("manager open", "dir", opt.Dir, "workers", opt.Workers,
		"queueLimit", opt.QueueLimit, "resumed", m.stats.Resumed)
	return m, nil
}

// Close stops the pool. In-flight simulation jobs write a final checkpoint
// and stay persisted as running, so a later Open on the same directory
// resumes them; queued jobs stay queued. Close returns once every worker
// goroutine has exited.
func (m *Manager) Close() error {
	m.mu.Lock()
	m.closing = true
	m.mu.Unlock()
	m.stop(errShutdown)
	m.wg.Wait()
	err := m.tsdb.Close()
	m.log.Info("manager closed", "dir", m.opt.Dir)
	return err
}

// Submit validates and admits one job, returning its initial status.
func (m *Manager) Submit(raw []byte) (Status, error) {
	cfg, err := DecodeConfig(raw)
	if err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("jobs: manager is shutting down")
	}
	m.seq++
	j := &job{
		id:        fmt.Sprintf("j%06d", m.seq),
		seq:       m.seq,
		cfg:       cfg,
		raw:       cfg.Canonical(),
		submitted: time.Now().UTC(),
		state:     StateQueued,
		total:     uint64(cfg.workload().TotalRefs),
	}
	if err := m.persist(j); err != nil {
		m.seq--
		m.mu.Unlock()
		return Status{}, err
	}
	m.jobs[j.id] = j
	m.stats.Submitted++
	m.mu.Unlock()

	select {
	case m.queue <- j:
		m.log.Info("job submitted", "job", j.id, "kind", cfg.Kind,
			"totalRefs", j.total, "queueDepth", len(m.queue))
		return j.status(), nil
	default:
		// Roll the admission back: the spec file and registry entry must
		// not describe a job no worker will ever pick up. The sequence
		// number is not reused — a concurrent submit may already hold the
		// next one.
		m.mu.Lock()
		delete(m.jobs, j.id)
		m.stats.Submitted--
		m.mu.Unlock()
		os.Remove(m.specPath(j.id))
		m.log.Warn("job rejected", "job", j.id, "kind", cfg.Kind, "err", ErrQueueFull)
		return Status{}, ErrQueueFull
	}
}

// Get returns one job's status.
func (m *Manager) Get(id string) (Status, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// List returns every known job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return js[a].seq < js[b].seq })
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// Counters returns the fleet totals.
func (m *Manager) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// QueueDepth is the number of admitted jobs not yet picked up by a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// Workers is the pool size.
func (m *Manager) Workers() int { return m.opt.Workers }

// Cancel stops a job. A queued job is canceled immediately; a running job
// is interrupted at its next batch boundary. Terminal jobs are an error.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("jobs: no job %q", id)
	}
	j.mu.Lock()
	switch {
	case j.state == StateQueued:
		j.state = StateCanceled
		j.mu.Unlock()
		m.finalize(j, StateCanceled, "")
		return nil
	case j.state == StateRunning && j.cancel != nil:
		cancel := j.cancel
		j.mu.Unlock()
		cancel(errCanceled)
		return nil
	case j.state == StateRunning:
		// Resumed-but-not-yet-started job: a worker will observe the
		// canceled state before running it.
		j.state = StateCanceled
		j.mu.Unlock()
		m.finalize(j, StateCanceled, "")
		return nil
	default:
		state := j.state
		j.mu.Unlock()
		return fmt.Errorf("jobs: job %s is already %s", id, state)
	}
}

// Report returns a finished job's report document.
func (m *Manager) Report(id string) ([]byte, error) {
	st, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("jobs: no job %q", id)
	}
	if st.State != StateDone {
		return nil, fmt.Errorf("jobs: job %s is %s, not done", id, st.State)
	}
	return os.ReadFile(m.reportPath(id))
}

// worker drains the queue until shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.execute(j)
		}
	}
}

// execute runs one admitted job through its lifecycle.
func (m *Manager) execute(j *job) {
	j.mu.Lock()
	if Terminal(j.state) { // canceled while queued
		j.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancelCause(m.ctx)
	if j.cfg.Deadline != "" {
		d, _ := time.ParseDuration(j.cfg.Deadline) // validated at submit
		var tcancel context.CancelFunc
		jctx, tcancel = context.WithTimeoutCause(jctx, d, context.DeadlineExceeded)
		defer tcancel()
	}
	defer cancel(nil)
	j.state = StateRunning
	j.cancel = cancel
	j.mu.Unlock()
	m.persistLocked(j)

	start := time.Now()
	m.mu.Lock()
	m.qhist.Record(uint64(start.Sub(j.submitted).Milliseconds()))
	m.mu.Unlock()
	m.log.Info("job started", "job", j.id, "kind", j.cfg.Kind,
		"queueWait", start.Sub(j.submitted), "resumed", j.resumed)
	if jt, terr := newJobTrace(m.tracePath(j.id), j.id, j.submitted); terr != nil {
		// Observability must not take the job down: run untraced.
		m.log.Warn("trace unavailable", "job", j.id, "err", terr)
	} else {
		j.trace = jt
	}

	report, err := m.run(jctx, j)

	elapsed := time.Since(start)
	m.mu.Lock()
	m.rhist.Record(uint64(elapsed.Milliseconds()))
	m.mu.Unlock()
	j.mu.Lock()
	j.cancel = nil
	j.mu.Unlock()
	switch {
	case err == nil:
		if werr := writeFileAtomic(m.reportPath(j.id), report); werr != nil {
			m.closeTrace(j, StateFailed)
			m.finalize(j, StateFailed, fmt.Sprintf("writing report: %v", werr))
			return
		}
		os.Remove(m.checkpointPath(j.id))
		m.closeTrace(j, StateDone)
		m.finalize(j, StateDone, "")
	case errors.Is(err, errShutdown):
		// Parked for resume: the spec stays persisted as running and the
		// executor has already written its final checkpoint. The trace
		// records this daemon lifetime as parked; the lifetime that finishes
		// the job rewrites it.
		m.closeTrace(j, "parked")
		m.log.Info("job parked", "job", j.id, "refs", j.status().Refs)
	case errors.Is(err, errCanceled):
		os.Remove(m.checkpointPath(j.id))
		m.closeTrace(j, StateCanceled)
		m.finalize(j, StateCanceled, "")
	case errors.Is(err, context.DeadlineExceeded):
		os.Remove(m.checkpointPath(j.id))
		m.closeTrace(j, StateFailed)
		m.finalize(j, StateFailed, "deadline exceeded")
	default:
		os.Remove(m.checkpointPath(j.id))
		m.closeTrace(j, StateFailed)
		m.finalize(j, StateFailed, err.Error())
	}
}

// closeTrace writes the lifecycle span tree and closes the job's trace file.
func (m *Manager) closeTrace(j *job, state string) {
	if j.trace == nil {
		return
	}
	if err := j.trace.finish(j.id, j.cfg.Kind, state); err != nil {
		m.log.Warn("trace export failed", "job", j.id, "err", err)
	}
	j.trace = nil
}

// run dispatches to the kind's executor. A panic in the executor, a
// simulator bug, fails this job alone: it becomes the error "panic: <value>"
// and its stack goes to the log.
func (m *Manager) run(ctx context.Context, j *job) (report []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			m.log.Error("job panicked", "job", j.id, "panic", fmt.Sprint(v), "stack", string(debug.Stack()))
			report, err = nil, fmt.Errorf("panic: %v", v)
		}
	}()
	switch j.cfg.Kind {
	case KindRun, KindSweep:
		return m.runSim(ctx, j)
	case KindAutotune:
		return m.runAutotune(ctx, j)
	}
	return nil, fmt.Errorf("jobs: unknown kind %q", j.cfg.Kind)
}

// finalize records a terminal state and persists the spec.
func (m *Manager) finalize(j *job, state, errMsg string) {
	// Count the event before the state is visible: a client that sees the
	// job terminal must find it in the lifecycle counters.
	m.mu.Lock()
	switch state {
	case StateDone:
		m.stats.Done++
	case StateFailed:
		m.stats.Failed++
	case StateCanceled:
		m.stats.Canceled++
	}
	m.mu.Unlock()
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.mu.Unlock()
	m.persistLocked(j)
	if errMsg != "" {
		m.log.Warn("job finished", "job", j.id, "state", state, "err", errMsg)
	} else {
		m.log.Info("job finished", "job", j.id, "state", state)
	}
}

// ---- persistence ----

// specFile is the on-disk job record. The report and checkpoint live in
// sibling files; everything is written atomically (temp + rename).
type specFile struct {
	ID        string          `json:"id"`
	Seq       int             `json:"seq"`
	State     string          `json:"state"`
	Error     string          `json:"error,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Config    json.RawMessage `json:"config"`
}

func (m *Manager) specPath(id string) string       { return filepath.Join(m.opt.Dir, id+".spec.json") }
func (m *Manager) reportPath(id string) string     { return filepath.Join(m.opt.Dir, id+".report.json") }
func (m *Manager) checkpointPath(id string) string { return filepath.Join(m.opt.Dir, id+".ck") }
func (m *Manager) tracePath(id string) string      { return filepath.Join(m.opt.Dir, id+".trace.json") }

// TracePath returns the job's OTLP trace file path (written when the job
// runs; rewritten by the daemon lifetime that finishes a resumed job).
func (m *Manager) TracePath(id string) string { return m.tracePath(id) }

// Timeseries queries a job's persisted window samples.
func (m *Manager) Timeseries(id string, q tsdb.Query) ([]tsdb.Sample, error) {
	m.mu.Lock()
	_, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("jobs: no job %q", id)
	}
	return m.tsdb.Query(id, q)
}

// ProgressEvery returns the progress-window size in references — the
// sampling interval of every job's time-series.
func (m *Manager) ProgressEvery() uint64 { return m.opt.ProgressEvery }

// Latency returns snapshots of the fleet's queue-wait and run-time
// histograms (milliseconds).
func (m *Manager) Latency() (queue, run monitor.Histogram) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.qhist, m.rhist
}

// persist writes j's spec; the caller holds j.mu or has exclusive access.
func (m *Manager) persist(j *job) error {
	sf := specFile{
		ID: j.id, Seq: j.seq, State: j.state, Error: j.errMsg,
		Submitted: j.submitted, Config: j.raw,
	}
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(m.specPath(j.id), append(data, '\n'))
}

// persistLocked snapshots j under its lock and writes the spec.
func (m *Manager) persistLocked(j *job) {
	j.mu.Lock()
	sf := specFile{
		ID: j.id, Seq: j.seq, State: j.state, Error: j.errMsg,
		Submitted: j.submitted, Config: j.raw,
	}
	j.mu.Unlock()
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return
	}
	// Persistence failures must not wedge the lifecycle; the in-memory
	// state is authoritative for this process and the next recover treats
	// a stale spec conservatively (it re-runs the job).
	_ = writeFileAtomic(m.specPath(j.id), append(data, '\n'))
}

// recover scans the state directory and rebuilds the registry, re-admitting
// unfinished jobs in submission order.
func (m *Manager) recover() error {
	entries, err := os.ReadDir(m.opt.Dir)
	if err != nil {
		return err
	}
	var pending []*job
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".json" || filepath.Ext(name[:len(name)-len(".json")]) != ".spec" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(m.opt.Dir, name))
		if err != nil {
			return err
		}
		var sf specFile
		if err := json.Unmarshal(data, &sf); err != nil {
			return fmt.Errorf("jobs: corrupt spec %s: %w", name, err)
		}
		j := &job{
			id: sf.ID, seq: sf.Seq, raw: sf.Config,
			submitted: sf.Submitted, state: sf.State, errMsg: sf.Error,
		}
		// A spec that no longer validates (a bound has tightened since it
		// was admitted, say) keeps its record but never runs again.
		cfg, invalid := DecodeConfig(sf.Config)
		if invalid == nil {
			j.cfg, j.raw = cfg, cfg.Canonical()
			j.total = uint64(cfg.workload().TotalRefs)
		} else {
			j.cfg = &Config{}
			_ = json.Unmarshal(sf.Config, j.cfg) // best effort: the kind its status shows
		}
		if sf.Seq > m.seq {
			m.seq = sf.Seq
		}
		switch sf.State {
		case StateQueued, StateRunning:
			if _, err := os.Stat(m.reportPath(sf.ID)); err == nil {
				// Crash window between report write and spec write: the
				// report exists, so the job is done.
				j.state = StateDone
			} else if invalid != nil {
				j.state, j.errMsg = StateFailed, fmt.Sprintf("spec no longer validates: %v", invalid)
				if err := m.persist(j); err != nil {
					return err
				}
				os.Remove(m.checkpointPath(j.id))
				m.stats.Failed++
				m.log.Warn("job finished", "job", j.id, "state", j.state, "err", j.errMsg)
			} else {
				j.state = StateQueued
				if sf.State == StateRunning {
					j.resumed = true
					m.stats.Resumed++
				}
				pending = append(pending, j)
			}
		}
		m.jobs[j.id] = j
	}
	sort.Slice(pending, func(a, b int) bool { return pending[a].seq < pending[b].seq })
	for _, j := range pending {
		if err := m.persist(j); err != nil {
			return err
		}
		select {
		case m.queue <- j:
		default:
			return fmt.Errorf("jobs: %d recovered jobs exceed the queue limit %d", len(pending), m.opt.QueueLimit)
		}
	}
	return nil
}

// writeFileAtomic writes data via a temp file and rename, so readers (and
// a daemon killed mid-write) never observe a partial document.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
