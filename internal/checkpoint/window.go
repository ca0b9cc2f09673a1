package checkpoint

import (
	"fmt"

	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Window is one approximate slice of a trace: references [Start, End) are
// measured after a Warmup-reference prefix rebuilds cache and TLB contents
// (clamped to Start when the window sits near the trace's head). Bounds are
// in memory references; context switches pass through uncounted.
type Window struct {
	Start, End uint64
	Warmup     uint64
}

// Prefix is one window made ready to run over a trace held in memory: the
// window's bounds as record indexes, and a snapshot of the page tables as
// they stand once the references before the warm-up have been translated.
// RunWindow copies the snapshot into each system instead of translating the
// skipped references again for every system, the way live-points store
// warmed state (Wenisch et al., ISPASS 2006). A Prefix is only read once
// built, so RunWindow calls on several goroutines may share it.
type Prefix struct {
	refs []trace.Ref
	// warm, start and end index the warm-up's first record, the measured
	// window's first record and the record after the window.
	warm, start, end int

	mmu *vm.MMU
}

// NewPrefixes locates each window of ws in refs and snapshots the page
// tables at each window's warm-up: mmu walks forward through refs once,
// translating every reference before the last window's warm-up, and each
// window's Prefix takes a copy of mmu as the walk reaches its warm-up. mmu
// must start where a full run's MMU starts (for a generated workload: fresh,
// with the shared mappings installed), so demand paging assigns frames in
// first-touch order, as in a full run, and physical indexing cannot
// diverge; the walk leaves it at the last window's warm-up. ws must be
// ordered by warm-up start, as windows spread evenly over a trace are; the
// whole trace, {Start: 0, End: references}, is a window too. refs is not
// copied and must not change while a Prefix is in use. A window reaching
// past the trace's end is an error.
func NewPrefixes(refs []trace.Ref, ws []Window, mmu *vm.MMU) ([]*Prefix, error) {
	out := make([]*Prefix, len(ws))
	// The walk has translated refs[:at], which holds walked memory
	// references, through mmu.
	at, walked := 0, uint64(0)
	for k, w := range ws {
		if w.End < w.Start {
			return nil, fmt.Errorf("checkpoint: window [%d, %d) is inverted", w.Start, w.End)
		}
		warm := min(w.Warmup, w.Start)
		if w.Start-warm < walked {
			return nil, fmt.Errorf("checkpoint: window %d's warm-up starts at reference %d, before the previous window's at %d",
				k, w.Start-warm, walked)
		}
		p := &Prefix{refs: refs}
		var err error
		if p.warm, err = seekRefs(refs, at, w.Start-warm-walked, "skip"); err != nil {
			return nil, err
		}
		if p.start, err = seekRefs(refs, p.warm, warm, "warm-up"); err != nil {
			return nil, err
		}
		if p.end, err = seekRefs(refs, p.start, w.End-w.Start, "window"); err != nil {
			return nil, err
		}
		for _, ref := range refs[at:p.warm] {
			if ref.Kind != trace.CtxSwitch {
				mmu.Translate(ref.PID, ref.Addr)
			}
		}
		at, walked = p.warm, w.Start-warm
		if p.mmu, err = vm.New(mmu.PageGeom().Size()); err != nil {
			return nil, err
		}
		if err := p.mmu.CopyFrom(mmu); err != nil {
			return nil, err
		}
		out[k] = p
	}
	return out, nil
}

// seekRefs returns the index just past the n-th memory reference counted
// from refs[from], or from itself when n is 0; context switches pass
// uncounted.
func seekRefs(refs []trace.Ref, from int, n uint64, phase string) (int, error) {
	i := from
	for left := n; left > 0; i++ {
		if i == len(refs) {
			return 0, fmt.Errorf("checkpoint: the trace ends %d references short of the %s", left, phase)
		}
		if refs[i].Kind != trace.CtxSwitch {
			left--
		}
	}
	return i, nil
}

// RunWindow drives sys through p's window. Its MMU takes a copy of p's
// page tables, replacing whatever it held, so a system built bare (without
// a workload's shared mappings) runs as one built with them would; only
// the page size must match. The warm-up is simulated and then discarded by
// ResetStats; only [Start, End) lands in the statistics, with write buffers
// drained at the end. Every machine an autotune search measures is one
// RunWindow: a probe cell on a probe window, an exact run on the whole
// trace.
func RunWindow(sys *system.System, p *Prefix) error {
	if err := sys.MMU().CopyFrom(p.mmu); err != nil {
		return err
	}
	if err := sys.ApplyBatch(p.refs[p.warm:p.start]); err != nil {
		return fmt.Errorf("checkpoint: warm-up: %w", err)
	}
	sys.ResetStats()
	if err := sys.ApplyBatch(p.refs[p.start:p.end]); err != nil {
		return fmt.Errorf("checkpoint: window: %w", err)
	}
	sys.Drain()
	return nil
}
