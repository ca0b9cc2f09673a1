package telemetry

import (
	"fmt"

	"repro/internal/probe"
	"repro/internal/stats"
)

// Span is one node of a causal span tree: a named interval of a CPU's cycle
// clock, with the mechanism activations it caused as children. A reference's
// tree reads top-down the way the paper's Section 3 walk does: the root is
// the whole reference, its children are the TLB consultation, the first-
// level lookup, the bus queueing, and the second-level/memory service, and
// the service span carries the synonym resolutions and bus transactions it
// triggered. Zero-width spans (Start == End) are instant markers.
type Span struct {
	Name      string  `json:"name"`
	Mechanism string  `json:"mechanism,omitempty"`
	CPU       int     `json:"cpu"`
	Ref       uint64  `json:"ref"`
	Start     uint64  `json:"startCycle"`
	End       uint64  `json:"endCycle"`
	VA        uint64  `json:"va,omitempty"`
	PA        uint64  `json:"pa,omitempty"`
	Children  []*Span `json:"children,omitempty"`
}

// Walk visits the span and all descendants, parents first.
func (s *Span) Walk(fn func(parent, span *Span)) {
	var rec func(parent, sp *Span)
	rec = func(parent, sp *Span) {
		fn(parent, sp)
		for _, c := range sp.Children {
			rec(sp, c)
		}
	}
	rec(nil, s)
}

// SpanExporter consumes completed span trees. Exporters that also implement
// `Close() error` are closed by Tracer.Close.
type SpanExporter interface {
	ExportSpan(*Span) error
}

// DefaultSpanSample is the 1-in-N sampling interval used when none is given.
const DefaultSpanSample = 4096

// Tracer is a probe Sink that assembles a causal span tree for every
// sampled reference (1 in N, deterministically: references 1, 1+N, 1+2N,
// ...). Cycle boundaries come from the timing events the cycle engine
// mirrors into the probe stream — the tracer reconstructs each CPU's clock
// by summing the charges, so span edges land exactly on the engine's
// cycle counts. Events of unsampled references cost a few compares and one
// add, with no allocation.
type Tracer struct {
	every   uint64
	exps    []SpanExporter
	clocks  []uint64 // per-agent reconstructed cycle clocks
	buf     []tracedEvent
	active  bool
	started bool
	curRef  uint64
	spans   uint64
	err     error
}

// tracedEvent is one buffered event of the active sampled reference with
// the owning CPU's clock at arrival.
type tracedEvent struct {
	ev    probe.Event
	clock uint64
}

// NewTracer creates a tracer sampling one reference in every (interval 0
// selects DefaultSpanSample), exporting completed trees to the given
// exporters.
func NewTracer(every uint64, exps ...SpanExporter) *Tracer {
	if every == 0 {
		every = DefaultSpanSample
	}
	return &Tracer{every: every, exps: exps}
}

// Every returns the sampling interval.
func (t *Tracer) Every() uint64 { return t.every }

// Spans returns the number of completed span trees exported so far.
func (t *Tracer) Spans() uint64 { return t.spans }

// clockOf returns agent id's reconstructed clock, growing the table on
// demand.
func (t *Tracer) clockOf(cpu int) uint64 {
	if cpu < 0 {
		cpu = 0
	}
	for cpu >= len(t.clocks) {
		t.clocks = append(t.clocks, 0)
	}
	return t.clocks[cpu]
}

// Event implements probe.Sink.
func (t *Tracer) Event(ev probe.Event) {
	if ev.Ref != t.curRef || !t.started {
		if t.active {
			t.finish()
		}
		t.curRef, t.started = ev.Ref, true
		t.active = ev.Ref > 0 && (ev.Ref-1)%t.every == 0
	}
	c := t.clockOf(ev.CPU)
	if t.active {
		t.buf = append(t.buf, tracedEvent{ev, c})
	}
	if ev.Kind.IsTiming() {
		t.clocks[clampCPU(ev.CPU)] = c + ev.Aux
	}
}

func clampCPU(cpu int) int {
	if cpu < 0 {
		return 0
	}
	return cpu
}

// finish builds and exports the active reference's tree.
func (t *Tracer) finish() {
	t.active = false
	if len(t.buf) == 0 {
		return
	}
	root := t.buildTree()
	t.buf = t.buf[:0]
	if root == nil {
		return
	}
	t.spans++
	for _, e := range t.exps {
		if err := e.ExportSpan(root); err != nil && t.err == nil {
			t.err = err
		}
	}
}

// nestsUnderService reports whether a marker of kind k on the issuing CPU
// belongs under the next service interval: second-level lookups, synonym
// resolutions or data supply, and bus transactions.
func nestsUnderService(k probe.Kind) bool {
	switch k {
	case probe.EvL2Hit, probe.EvL2Miss,
		probe.EvSynSameSet, probe.EvSynMove, probe.EvSynCross, probe.EvSynBuffered, probe.EvDataSupply,
		probe.EvBusRead, probe.EvBusReadMod, probe.EvBusInvalidate, probe.EvBusUpdate:
		return true
	}
	return false
}

// buildTree assembles the causal tree from the buffered events. The primary
// CPU is the one that issued the reference (the CPU of the first access
// event); its first buffered clock is the root's start and its final
// reconstructed clock the root's end. Functional events become instant
// markers, timing charges become intervals, and second-level markers
// (synonym resolutions or data supply, L2 lookups, bus transactions) nest
// under the service interval they belong to.
func (t *Tracer) buildTree() *Span {
	primary := -1
	var acc stats.AccessKind
	var va, pa uint64
	for _, te := range t.buf {
		switch te.ev.Kind {
		case probe.EvL1Hit, probe.EvL1Miss:
			if primary < 0 {
				primary = te.ev.CPU
				acc = te.ev.Access
				va, pa = uint64(te.ev.VA), uint64(te.ev.PA)
			}
		}
	}
	name := fmt.Sprintf("%s ref#%d", acc, t.curRef)
	if primary < 0 {
		// A record with no access event (e.g. a context switch): root on the
		// first event's CPU.
		primary = t.buf[0].ev.CPU
		name = fmt.Sprintf("%s ref#%d", t.buf[0].ev.Kind, t.curRef)
	}
	root := &Span{
		Name: name, CPU: primary, Ref: t.curRef,
		Start: t.buf[0].clock, VA: va, PA: pa,
	}
	for _, te := range t.buf {
		if te.ev.CPU == primary {
			root.Start = te.clock
			break
		}
	}

	level := 1
	var pendingL2 []*Span // markers that belong under the next service span
	for _, te := range t.buf {
		ev := te.ev
		onPrimary := ev.CPU == primary
		if onPrimary && ev.Kind.IsTiming() {
			// A charge is an interval named after its mechanism; the
			// service charge takes the markers pending since the last one.
			mech := mechanismOf(ev.Kind, level)
			sp := &Span{
				Name: mech.String(), Mechanism: mech.String(), CPU: ev.CPU, Ref: ev.Ref,
				Start: te.clock, End: te.clock + ev.Aux,
			}
			switch mech {
			case MechTLBMiss:
				sp.Name = "tlb-miss-walk"
			case MechCtxSwitch:
				sp.Name = "ctx-flush"
			}
			if ev.Kind == probe.EvTimeAccess {
				sp.Children, pendingL2 = pendingL2, nil
				level = 1
			}
			root.Children = append(root.Children, sp)
			continue
		}
		m := &Span{
			Name: ev.Kind.String(), CPU: ev.CPU, Ref: ev.Ref,
			Start: te.clock, End: te.clock,
			VA: uint64(ev.VA), PA: uint64(ev.PA),
		}
		switch {
		case !onPrimary:
			m.Name = fmt.Sprintf("cpu%d %s", ev.CPU, ev.Kind)
			root.Children = append(root.Children, m)
		case nestsUnderService(ev.Kind):
			pendingL2 = append(pendingL2, m)
		default:
			root.Children = append(root.Children, m)
		}
		if l := serviceLevel(ev.Kind); l > 0 && onPrimary {
			level = l
		}
	}
	// Markers that never found a service span (e.g. an L2 drain after the
	// charge) stay on the root.
	root.Children = append(root.Children, pendingL2...)

	root.End = t.clockOf(primary)
	for _, c := range root.Children {
		if c.End > root.End {
			root.End = c.End
		}
	}
	return root
}

// Flush exports the pending tree, if any (the final sampled reference of a
// run has no successor to close it).
func (t *Tracer) Flush() {
	if t.active {
		t.finish()
	}
}

// Close implements the optional Sink close: it exports the pending tree and
// closes every owned exporter, returning the first error.
func (t *Tracer) Close() error {
	t.Flush()
	for _, e := range t.exps {
		if c, ok := e.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && t.err == nil {
				t.err = err
			}
		}
	}
	return t.err
}
