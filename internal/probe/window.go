package probe

// WindowMetrics aggregates the headline rates over one window of N
// references: how hit ratios, synonym cost and coherence disturbance
// evolve across a trace rather than only at the end of the run.
//
// Seq and StartRef are the window's absolute position in the workload's
// reference stream: they stay aligned across daemon restarts when the
// collector is given the resume point via Resume, so time-series samples
// from different daemon lifetimes of one job key to the same window
// sequence.
type WindowMetrics struct {
	Index    int    `json:"window"`
	Seq      uint64 `json:"seq"`      // absolute window sequence number
	FirstRef uint64 `json:"firstRef"` // 1-based, inclusive
	StartRef uint64 `json:"startRef"` // absolute 1-based starting reference
	LastRef  uint64 `json:"lastRef"`  // inclusive

	L1Hits     uint64 `json:"l1Hits"`
	L1Misses   uint64 `json:"l1Misses"`
	L2Hits     uint64 `json:"l2Hits"`
	L2Misses   uint64 `json:"l2Misses"`
	TLBMisses  uint64 `json:"tlbMisses"`
	Synonyms   uint64 `json:"synonyms"`
	WriteBacks uint64 `json:"writeBacks"`
	CohToL1    uint64 `json:"coherenceToL1"`
	Shielded   uint64 `json:"shielded"`
	BusTxns    uint64 `json:"busTxns"`

	// Cycles is the total cycle charge landed in the window (the sum of
	// every timing event's Aux), present when a cycle engine feeds the
	// probe stream. Cycles/refs is the window's measured Tacc.
	Cycles uint64 `json:"cycles,omitempty"`
}

// refs returns the number of references the window spans.
func (w WindowMetrics) refs() uint64 {
	if w.LastRef < w.FirstRef {
		return 0
	}
	return w.LastRef - w.FirstRef + 1
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// L1Ratio returns the window's first-level hit ratio.
func (w WindowMetrics) L1Ratio() float64 { return ratio(w.L1Hits, w.L1Misses) }

// L2Ratio returns the window's second-level hit ratio.
func (w WindowMetrics) L2Ratio() float64 { return ratio(w.L2Hits, w.L2Misses) }

// SynonymRate returns synonym resolutions per reference — the paper's
// "considerably less than 1% of data references" claim, windowed.
func (w WindowMetrics) SynonymRate() float64 {
	if n := w.refs(); n > 0 {
		return float64(w.Synonyms) / float64(n)
	}
	return 0
}

// BusOccupancy returns bus transactions per reference, a proxy for bus
// utilization in the reference-serial simulator.
func (w WindowMetrics) BusOccupancy() float64 {
	if n := w.refs(); n > 0 {
		return float64(w.BusTxns) / float64(n)
	}
	return 0
}

// Tacc returns the window's measured cycles per reference (0 for untimed
// runs).
func (w WindowMetrics) Tacc() float64 {
	if n := w.refs(); n > 0 {
		return float64(w.Cycles) / float64(n)
	}
	return 0
}

// Windows is a Sink that folds the event stream into fixed-size windows of
// N references. OnClose, when set, observes each window as it completes —
// the CLI's live run telemetry.
type Windows struct {
	every   uint64
	base    uint64 // absolute reference offset (resume point)
	last    uint64 // newest absolute reference index seen
	cur     WindowMetrics
	open    bool
	done    []WindowMetrics
	OnClose func(WindowMetrics)
}

// NewWindows creates a collector with the given window length in
// references (minimum 1).
func NewWindows(every uint64) *Windows {
	if every < 1 {
		every = 1
	}
	return &Windows{every: every}
}

// Every returns the window length.
func (w *Windows) Every() uint64 { return w.every }

// Pending returns the open window, with the counts folded into it so far,
// and whether one is open. A checkpoint stores it so that the resumed
// collector finishes the window instead of restarting it from zero.
func (w *Windows) Pending() (WindowMetrics, bool) { return w.cur, w.open }

// Resume positions the collector at an absolute reference offset and
// reopens the window Pending returned there (none when open is false): the
// probe's next reference 1 corresponds to absolute reference base+1. A
// restarted job passes the refs already simulated at its checkpoint, so
// window sequence numbers and counts continue where the previous daemon
// lifetime left off. Call it before any event arrives.
func (w *Windows) Resume(base uint64, pending WindowMetrics, open bool) {
	w.base, w.last = base, base
	w.cur, w.open = pending, open
}

// Event implements Sink.
func (w *Windows) Event(ev Event) {
	aref := w.base + ev.Ref
	if aref > w.last {
		w.last = aref
	}
	if aref == 0 {
		aref = 1 // pre-reference events land in the first window
	}
	idx := int((aref - 1) / w.every)
	if !w.open || idx > w.cur.Index {
		w.roll(idx)
	}
	switch ev.Kind {
	case EvL1Hit:
		w.cur.L1Hits++
	case EvL1Miss:
		w.cur.L1Misses++
	case EvL2Hit:
		w.cur.L2Hits++
	case EvL2Miss:
		w.cur.L2Misses++
	case EvTLBMiss:
		w.cur.TLBMisses++
	case EvSynSameSet, EvSynMove, EvSynCross, EvSynBuffered:
		w.cur.Synonyms++
	case EvWriteBack:
		w.cur.WriteBacks++
	case EvCohInvalidate, EvCohFlush, EvCohInvalidateBuffer, EvCohFlushBuffer,
		EvCohUpdate, EvCohProbe, EvInclusionInval:
		w.cur.CohToL1++
	case EvShielded:
		w.cur.Shielded++
	case EvBusRead, EvBusReadMod, EvBusInvalidate, EvBusUpdate:
		w.cur.BusTxns++
	case EvTimeAccess, EvTimeTLBMiss, EvTimeBusWait, EvTimeWBStall, EvTimeCtxSwitch:
		w.cur.Cycles += ev.Aux
	}
}

// roll closes the current window (if open) and opens window idx. Window
// bounds are absolute: idx counts windows of the whole workload stream,
// not of this probe's lifetime.
func (w *Windows) roll(idx int) {
	if w.open {
		w.done = append(w.done, w.cur)
		if w.OnClose != nil {
			w.OnClose(w.cur)
		}
	}
	first := uint64(idx)*w.every + 1
	w.cur = WindowMetrics{
		Index:    idx,
		Seq:      uint64(idx),
		FirstRef: first,
		StartRef: first,
		LastRef:  uint64(idx+1) * w.every,
	}
	w.open = true
}

// Close finalizes the trailing partial window, clamping its bound to the
// last reference actually seen so per-reference rates stay honest.
func (w *Windows) Close() error {
	if w.open {
		if w.last > 0 && w.last < w.cur.LastRef {
			w.cur.LastRef = w.last
		}
		w.done = append(w.done, w.cur)
		if w.OnClose != nil {
			w.OnClose(w.cur)
		}
		w.open = false
	}
	return nil
}

// Done returns the completed windows (call Close first to include the
// trailing partial one).
func (w *Windows) Done() []WindowMetrics { return w.done }
