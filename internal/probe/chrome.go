package probe

import (
	"io"
	"strconv"
)

// ChromeTrace is a Sink that writes the event stream in the Chrome
// trace_event JSON format, loadable in chrome://tracing or Perfetto. Each
// bus agent becomes a "process"; event categories become named threads
// within it, so accesses, synonym resolutions, write-buffer traffic and
// coherence messages appear as separate lanes. The timeline unit is one
// trace reference (exported as one microsecond); access events get
// durations from the paper's default latency scaling (t1=1, t2=4, tm=20),
// everything else is an instant.
type ChromeTrace struct {
	out    *JSONStream
	events int // probe events written
	named  map[int]bool
}

// NewChromeTrace creates an exporter writing to w. If w is also an
// io.Closer (e.g. an *os.File), Close closes it after the footer.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	return &ChromeTrace{
		out:   NewJSONStream(w, `{"displayTimeUnit":"ms","traceEvents":[`, "]}\n"),
		named: make(map[int]bool),
	}
}

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// laneOf maps an event category to a stable thread id.
func laneOf(k Kind) int {
	switch k.Category() {
	case "access":
		return 0
	case "tlb":
		return 1
	case "synonym":
		return 2
	case "writebuf":
		return 3
	case "coherence":
		return 4
	case "bus":
		return 5
	case "dma":
		return 6
	case "time":
		return 7
	default:
		return 8
	}
}

// durOf returns the paper-scaled duration of an access event (0 for
// instants).
func durOf(k Kind) uint64 {
	switch k {
	case EvL1Hit:
		return 1
	case EvL2Hit:
		return 4
	case EvL2Miss:
		return 20
	default:
		return 0
	}
}

// Event implements Sink.
func (c *ChromeTrace) Event(ev Event) {
	if c.out.Err() != nil {
		return
	}
	if !c.named[ev.CPU] {
		c.named[ev.CPU] = true
		c.out.Record(chromeEvent{
			Name: "process_name", Ph: "M", PID: ev.CPU,
			Args: map[string]any{"name": "cpu" + strconv.Itoa(ev.CPU)},
		})
	}
	ce := chromeEvent{
		Name: ev.Kind.String(),
		Cat:  ev.Kind.Category(),
		Ts:   ev.Ref,
		PID:  ev.CPU,
		TID:  laneOf(ev.Kind),
	}
	if d := durOf(ev.Kind); d > 0 {
		ce.Ph = "X"
		ce.Dur = d
	} else {
		ce.Ph, ce.S = "i", "t"
	}
	args := map[string]any{"seq": ev.Seq}
	switch ev.Kind {
	case EvL1Hit, EvL1Miss, EvL2Hit, EvL2Miss:
		ce.Name = ev.Access.String() + " " + ce.Name
		args["va"], args["pa"] = ev.VA, ev.PA
	case EvCtxSwitch:
		args["flush"] = [...]string{"lazy", "eager", "none"}[ev.Aux]
	default:
		if ev.PA != 0 {
			args["pa"] = ev.PA
		}
	}
	ce.Args = args
	c.out.Record(ce)
	c.events++
}

// Events returns the number of probe events written so far (excluding
// metadata records).
func (c *ChromeTrace) Events() int { return c.events }

// Close writes the JSON footer and flushes (closing the underlying writer
// when it is closable).
func (c *ChromeTrace) Close() error { return c.out.Close() }
