package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/probe"
)

// Default flight-recorder parameters.
const (
	DefaultRecEventsPerCPU = 1024
	DefaultRecMaxBundles   = 8
)

// RecorderConfig configures a flight recorder.
type RecorderConfig struct {
	// Dir receives post-mortem bundle files (flightrec-NNN-<trigger>.json).
	// Empty keeps bundles in memory only (the HTTP on-demand path).
	Dir string
	// EventsPerCPU sizes each per-CPU ring (0 = DefaultRecEventsPerCPU).
	EventsPerCPU int
	// LatencyThreshold, when nonzero, dumps a bundle the first time a
	// reference's measured access time (an EvTimeAccess charge) reaches
	// this many cycles — the p99.9-style tripwire.
	LatencyThreshold uint64
	// MaxBundles bounds the number of bundles written per run so a corrupt
	// machine cannot turn the recorder into a disk leak (0 =
	// DefaultRecMaxBundles).
	MaxBundles int
	// Label tags bundles with the run's configuration (org, preset, ...).
	Label string
	// Snapshot, when set, captures the machine state embedded in a bundle
	// dumped without an audit snapshot in hand (latency and on-demand
	// triggers). It runs on the simulation goroutine.
	Snapshot func() *audit.Snapshot
}

// BundleEvent is one ring event in a post-mortem bundle, with the kind and
// access class as stable strings so bundles outlive the enum values.
type BundleEvent struct {
	Seq    uint64 `json:"seq"`
	Ref    uint64 `json:"ref"`
	CPU    int    `json:"cpu"`
	Kind   string `json:"kind"`
	Access string `json:"access,omitempty"`
	VA     uint64 `json:"va,omitempty"`
	PA     uint64 `json:"pa,omitempty"`
	Aux    uint64 `json:"aux,omitempty"`
}

// Bundle is one post-mortem capture: the identity of the binary, what
// tripped the dump, the most recent events per CPU (merged, oldest first),
// and the machine snapshot.
type Bundle struct {
	Build      BuildInfo         `json:"build"`
	Label      string            `json:"label,omitempty"`
	Trigger    string            `json:"trigger"`
	Detail     string            `json:"detail,omitempty"`
	CapturedAt string            `json:"capturedAt,omitempty"`
	Ref        uint64            `json:"ref"`
	Events     []BundleEvent     `json:"events"`
	Snapshot   *audit.Snapshot   `json:"snapshot,omitempty"`
	Violations []audit.Violation `json:"violations,omitempty"`
}

// ParseBundle reads and validates one bundle document.
func ParseBundle(r io.Reader) (*Bundle, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var b Bundle
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("telemetry: parse bundle: %w", err)
	}
	if b.Trigger == "" {
		return nil, errors.New("telemetry: bundle has no trigger")
	}
	if b.Snapshot != nil {
		if err := b.Snapshot.Validate(); err != nil {
			return nil, fmt.Errorf("telemetry: parse bundle: %w", err)
		}
	}
	return &b, nil
}

// ReadBundle loads a bundle file written by a Recorder.
func ReadBundle(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseBundle(f)
}

// recRing is a fixed-size overwrite ring of recent events. It is touched
// only on the simulation goroutine.
type recRing struct {
	buf  []probe.Event
	next int
	full bool
}

func (r *recRing) add(ev probe.Event) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// ordered appends the ring's events oldest-first to dst.
func (r *recRing) ordered(dst []probe.Event) []probe.Event {
	if r.full {
		dst = append(dst, r.buf[r.next:]...)
	}
	return append(dst, r.buf[:r.next]...)
}

// dumpResult is what an on-demand dump hands back across goroutines.
type dumpResult struct {
	data []byte
	err  error
}

// dumpRequest is the mailbox cell for an HTTP-triggered dump.
type dumpRequest struct {
	detail string
	done   chan dumpResult
}

// Recorder is the flight recorder: a probe Sink keeping a fixed-size ring
// of the most recent events per CPU, dumped as a post-mortem bundle when an
// audit violation is reported (attach OnAudit via audit's callback), when a
// latency sample trips the threshold, or on demand (RequestDump, safe from
// any goroutine via an atomic mailbox the simulation goroutine polls).
//
// The armed hot path — Event with nothing tripped — is a ring store, a
// threshold compare, and one atomic load; it never allocates.
type Recorder struct {
	cfg      RecorderConfig
	rings    []*recRing
	lastSnap *audit.Snapshot
	lastRef  uint64
	dumps    uint64
	latTrips uint64
	req      atomic.Pointer[dumpRequest]
	now      func() time.Time
	err      error
}

// NewRecorder creates an armed flight recorder. If cfg.Dir is nonempty it
// is created on first dump.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.EventsPerCPU <= 0 {
		cfg.EventsPerCPU = DefaultRecEventsPerCPU
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = DefaultRecMaxBundles
	}
	return &Recorder{cfg: cfg, now: time.Now}
}

// Dumps returns the number of bundles captured so far.
func (r *Recorder) Dumps() uint64 { return atomic.LoadUint64(&r.dumps) }

// LatencyTrips returns how many access charges reached the latency
// threshold (dumps are capped; trips keep counting).
func (r *Recorder) LatencyTrips() uint64 { return r.latTrips }

// Err returns the first dump error, if any.
func (r *Recorder) Err() error { return r.err }

func (r *Recorder) ringFor(cpu int) *recRing {
	cpu = clampCPU(cpu)
	for cpu >= len(r.rings) {
		r.rings = append(r.rings, &recRing{buf: make([]probe.Event, r.cfg.EventsPerCPU)})
	}
	return r.rings[cpu]
}

// Event implements probe.Sink.
func (r *Recorder) Event(ev probe.Event) {
	r.ringFor(ev.CPU).add(ev)
	if ev.Ref > r.lastRef {
		r.lastRef = ev.Ref
	}
	if r.cfg.LatencyThreshold > 0 && ev.Kind == probe.EvTimeAccess && ev.Aux >= r.cfg.LatencyThreshold {
		r.latTrips++
		r.dump("latency", fmt.Sprintf("ref %d on cpu %d took %d cycles (threshold %d)",
			ev.Ref, ev.CPU, ev.Aux, r.cfg.LatencyThreshold), nil, nil)
	}
	if r.req.Load() != nil {
		if req := r.req.Swap(nil); req != nil {
			data, err := r.dump("on-demand", req.detail, nil, nil)
			req.done <- dumpResult{data, err}
		}
	}
}

// OnAudit observes completed audits (wire it to audit.Auditor's callback):
// it retains the snapshot for later dumps and captures a bundle whenever
// violations are reported. It runs on the simulation goroutine.
func (r *Recorder) OnAudit(snap *audit.Snapshot, found []audit.Violation) {
	r.lastSnap = snap
	if len(found) == 0 {
		return
	}
	r.dump("audit-violation", fmt.Sprintf("%d violation(s), first: %s", len(found), found[0]), snap, found)
}

// Dump captures a bundle on demand from the simulation goroutine and
// returns its JSON encoding.
func (r *Recorder) Dump(detail string) ([]byte, error) {
	return r.dump("on-demand", detail, nil, nil)
}

// ErrRecorderBusy reports an on-demand dump colliding with another.
var ErrRecorderBusy = errors.New("telemetry: flight recorder busy with another dump request")

// ErrRecorderIdle reports an on-demand dump that timed out because the
// simulation goroutine never drained the mailbox (run finished or stalled).
var ErrRecorderIdle = errors.New("telemetry: flight recorder dump timed out (simulation idle?)")

// RequestDump asks the simulation goroutine for a bundle and waits up to
// timeout for it. It is safe from any goroutine; the simulation thread
// polls the one-cell mailbox on every event.
func (r *Recorder) RequestDump(detail string, timeout time.Duration) ([]byte, error) {
	req := &dumpRequest{detail: detail, done: make(chan dumpResult, 1)}
	if !r.req.CompareAndSwap(nil, req) {
		return nil, ErrRecorderBusy
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-req.done:
		return res.data, res.err
	case <-timer.C:
		if r.req.CompareAndSwap(req, nil) {
			return nil, ErrRecorderIdle
		}
		// The simulation goroutine claimed the request as we timed out;
		// the result is imminent.
		res := <-req.done
		return res.data, res.err
	}
}

// dump assembles, encodes, counts and (when configured) writes one bundle.
// It runs on the simulation goroutine.
func (r *Recorder) dump(trigger, detail string, snap *audit.Snapshot, found []audit.Violation) ([]byte, error) {
	n := atomic.LoadUint64(&r.dumps)
	if n >= uint64(r.cfg.MaxBundles) {
		return nil, fmt.Errorf("telemetry: bundle cap (%d) reached", r.cfg.MaxBundles)
	}
	atomic.StoreUint64(&r.dumps, n+1)

	var evs []probe.Event
	for _, ring := range r.rings {
		evs = ring.ordered(evs)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })

	if snap == nil {
		if r.cfg.Snapshot != nil {
			snap = r.cfg.Snapshot()
		} else {
			snap = r.lastSnap
		}
	}
	b := &Bundle{
		Build:      Build(),
		Label:      r.cfg.Label,
		Trigger:    trigger,
		Detail:     detail,
		CapturedAt: r.now().UTC().Format(time.RFC3339),
		Ref:        r.lastRef,
		Events:     make([]BundleEvent, 0, len(evs)),
		Snapshot:   snap,
		Violations: found,
	}
	for _, ev := range evs {
		be := BundleEvent{
			Seq: ev.Seq, Ref: ev.Ref, CPU: ev.CPU, Kind: ev.Kind.String(),
			VA: uint64(ev.VA), PA: uint64(ev.PA), Aux: ev.Aux,
		}
		switch ev.Kind {
		case probe.EvL1Hit, probe.EvL1Miss, probe.EvL2Hit, probe.EvL2Miss, probe.EvTimeAccess:
			be.Access = ev.Access.String()
		}
		b.Events = append(b.Events, be)
	}

	data, err := json.MarshalIndent(b, "", "  ")
	if err == nil {
		data = append(data, '\n')
	}
	if err == nil && r.cfg.Dir != "" {
		if mkErr := os.MkdirAll(r.cfg.Dir, 0o755); mkErr != nil {
			err = mkErr
		} else {
			path := filepath.Join(r.cfg.Dir, fmt.Sprintf("flightrec-%03d-%s.json", n, trigger))
			err = os.WriteFile(path, data, 0o644)
		}
	}
	if err != nil && r.err == nil {
		r.err = err
	}
	return data, err
}

// Close implements the optional Sink close. A pending on-demand request is
// answered from the final ring state so an HTTP caller is not left hanging
// on a finished run.
func (r *Recorder) Close() error {
	if req := r.req.Swap(nil); req != nil {
		data, err := r.dump("on-demand", req.detail, nil, nil)
		req.done <- dumpResult{data, err}
	}
	return r.err
}
