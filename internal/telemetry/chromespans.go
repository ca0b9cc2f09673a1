package telemetry

import (
	"fmt"
	"io"

	"repro/internal/probe"
)

// ChromeSpanWriter exports span trees in the Chrome trace_event format
// (load into chrome://tracing or Perfetto). Unlike probe.ChromeTrace, which
// plots raw events on category lanes, this exporter writes the *nested*
// causal spans: complete ("X") events whose durations are cycle counts, so
// the service interval visually contains its bus wait and the synonym
// resolutions it triggered. Zero-width spans become instant ("i") events.
type ChromeSpanWriter struct {
	out *probe.JSONStream
}

// NewChromeSpanWriter creates an exporter writing one JSON trace document
// to w. If w is also an io.Closer (e.g. an *os.File), Close closes it.
func NewChromeSpanWriter(w io.Writer) *ChromeSpanWriter {
	return &ChromeSpanWriter{out: probe.NewJSONStream(w, `{"displayTimeUnit":"ns","traceEvents":[`, "]}\n")}
}

// chromeSpanEvent is one trace_event record.
type chromeSpanEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ExportSpan implements SpanExporter. Each CPU is a pid so per-CPU tracks
// separate; nesting depth maps to tid, which Chrome renders as rows.
func (c *ChromeSpanWriter) ExportSpan(root *Span) error {
	var rec func(sp *Span, depth int)
	rec = func(sp *Span, depth int) {
		ev := chromeSpanEvent{
			Name: sp.Name,
			TS:   sp.Start,
			PID:  sp.CPU,
			TID:  depth,
			Cat:  sp.Mechanism,
			Args: map[string]any{"ref": sp.Ref},
		}
		if sp.VA != 0 {
			ev.Args["va"] = fmt.Sprintf("%#x", sp.VA)
		}
		if sp.PA != 0 {
			ev.Args["pa"] = fmt.Sprintf("%#x", sp.PA)
		}
		if sp.End > sp.Start {
			ev.Phase, ev.Dur = "X", sp.End-sp.Start
		} else {
			ev.Phase, ev.Scope = "i", "t"
		}
		c.out.Record(ev)
		for _, child := range sp.Children {
			rec(child, depth+1)
		}
	}
	rec(root, 0)
	return c.out.Err()
}

// Events returns the number of trace records written.
func (c *ChromeSpanWriter) Events() int { return c.out.Records() }

// Close writes the footer and flushes (closing the underlying writer when
// it is closable).
func (c *ChromeSpanWriter) Close() error { return c.out.Close() }
