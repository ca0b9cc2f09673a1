package probe

// Sink consumes events in global emission order. Sinks that also implement
// `Close() error` are closed by Probe.Close.
type Sink interface {
	Event(Event)
}

// Counts is the per-kind event tally a Probe maintains inline (available
// without attaching any sink).
type Counts [NumKinds]uint64

// Of returns the count for one kind.
func (c Counts) Of(k Kind) uint64 {
	if k < NumKinds {
		return c[k]
	}
	return 0
}

// Total returns the count across all kinds.
func (c Counts) Total() uint64 {
	var t uint64
	for _, v := range c {
		t += v
	}
	return t
}

// Map returns the non-zero counts keyed by kind name (the JSON report
// form).
func (c Counts) Map() map[string]uint64 {
	m := make(map[string]uint64)
	for k := Kind(0); k < NumKinds; k++ {
		if c[k] > 0 {
			m[k.String()] = c[k]
		}
	}
	return m
}

// Probe is the event sink the simulator's components emit through. A nil
// *Probe is valid and means "disabled": every method is safe to call and
// does nothing, so the hot paths pay only a nil check.
type Probe struct {
	sinks  []Sink
	counts Counts
	seq    uint64
	ref    uint64
}

// New creates an enabled probe.
func New() *Probe { return &Probe{} }

// AddSink attaches a sink. Every event is delivered to the sinks in attach
// order, from inside the Emit call that produced it.
func (p *Probe) AddSink(s Sink) {
	if p == nil || s == nil {
		return
	}
	p.sinks = append(p.sinks, s)
}

// Enabled reports whether the probe collects events.
func (p *Probe) Enabled() bool { return p != nil }

// AdvanceRef starts the next memory reference; subsequent events are
// stamped with its 1-based index. The system layer calls this once per
// non-context-switch trace record.
func (p *Probe) AdvanceRef() {
	if p != nil {
		p.ref++
	}
}

// Ref returns the current reference index.
func (p *Probe) Ref() uint64 {
	if p == nil {
		return 0
	}
	return p.ref
}

// Counts returns a copy of the per-kind tallies.
func (p *Probe) Counts() Counts {
	if p == nil {
		return Counts{}
	}
	return p.counts
}

// Emit records one event, stamping its sequence number and reference
// index, and hands it to every sink before returning, so sinks observe the
// global emission order with no buffering.
func (p *Probe) Emit(ev Event) {
	if p == nil {
		return
	}
	p.seq++
	ev.Seq = p.seq
	ev.Ref = p.ref
	p.counts[ev.Kind]++
	for _, s := range p.sinks {
		s.Event(ev)
	}
}

// Close closes every sink that supports closing, returning the first
// error.
func (p *Probe) Close() error {
	if p == nil {
		return nil
	}
	var first error
	for _, s := range p.sinks {
		if c, ok := s.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
