package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one timed call the benchmark made into a module. Spans of one
// pass or job share a run id; Parent is the id of the enclosing span (0 for
// a root).
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced half's spans in memory; they are written out when
// the run ends. A nil *tracer records nothing, so untraced code paths call
// the same methods at the cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(run, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Run: run, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's. Children arrive in start order (ids grow with time).
func covered(parent span, kids []span) time.Duration {
	var total, reach int64
	reach = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return time.Duration(total)
}

// timedReader wraps a trace generator so that every ReadBatch call becomes a
// span. It implements trace.BatchReader: a wrapper with only Next would make
// trace.FillBatch fall back to per-record reads, which measures a different
// program.
type timedReader struct {
	r           trace.BatchReader
	t           *tracer
	run, parent int
}

func (r *timedReader) Next() (trace.Ref, error) { return r.r.Next() }

func (r *timedReader) ReadBatch(dst []trace.Ref) (int, error) {
	id := r.t.begin(r.run, r.parent, spanReadBatch)
	n, err := r.r.ReadBatch(dst)
	r.t.end(id)
	return n, err
}

// reader returns gen itself when untraced, or gen wrapped in a timedReader
// whose spans are children of parent.
func (t *tracer) reader(gen trace.BatchReader, run, parent int) trace.Reader {
	if t == nil {
		return gen
	}
	return &timedReader{r: gen, t: t, run: run, parent: parent}
}

// Span names.
const (
	spanReadBatch = "tracegen.ReadBatch"
	spanRun       = "system.Run"
	spanSweep     = "sweep.Run"
	spanSearch    = "autotune.Search"
	spanJob       = "client.job"
	spanSubmit    = "client.Submit"
	spanStatus    = "client.Status"
	spanReport    = "client.Report"
	spanTimeser   = "client.Timeseries"
)

// writeSpans writes every traced half's spans as JSON lines to
// <spans>/<workload>-seed<seed>.jsonl.
func (b *bench) writeSpans() error {
	if err := os.MkdirAll(b.o.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.o.spans, fmt.Sprintf("%s-seed%d.jsonl", b.o.workload, b.o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	n := 0
	for _, t := range b.spans {
		for _, s := range t.snapshot() {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
			n++
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	b.logf("spans: %d written to %s", n, path)
	return nil
}
