package checkpoint

import (
	"bytes"
	"fmt"

	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/trace"
)

// ShardOptions configures a time-sharded run. The trace must be
// deterministic and regenerable from scratch (Source is called once per
// shard plus once for any prior pass), and the systems NewSystem builds
// must be cold, identically configured, each given its own cycle engine
// when timed (shards run concurrently), and free of the features a
// checkpoint refuses (probe, periodic auditor) and of the consistency
// oracle — a shard that skips the trace prefix cannot know the tokens
// earlier writes left behind.
type ShardOptions struct {
	// Shards is the number of trace windows, K >= 1.
	Shards int
	// Workers bounds the worker goroutines (default GOMAXPROCS).
	Workers int
	// Warmup is the number of memory references simulated before each
	// window in approximate mode to rebuild cache and TLB contents the
	// shard did not simulate. Ignored in exact mode.
	Warmup uint64
	// TotalRefs is the trace's length in memory references (context
	// switches excluded); window boundaries are cut in these units.
	TotalRefs uint64
	// Exact selects exact mode: a sequential prior pass checkpoints the
	// machine at every boundary, each shard resumes from its checkpoint,
	// and every shard's end state is byte-compared against the next
	// boundary's checkpoint — the differential verification of the
	// checkpoint layer. Approximate mode (the default) runs each shard as
	// one RunWindow: skip the prefix, warm up, measure only its own window.
	Exact bool
	// Signature identifies the configuration+workload (checkpoint
	// provenance).
	Signature string
	// NewSystem builds one cold machine.
	NewSystem func() (*system.System, error)
	// Source regenerates the trace from its first record.
	Source func() (trace.Reader, error)
}

// ShardOutcome reports what a sharded run did.
type ShardOutcome struct {
	Mode       string   // "exact" or "approximate"
	Shards     int      //
	Warmup     uint64   // approximate mode's warm-up prefix, in references
	Boundaries []uint64 // window starts in memory references, plus TotalRefs
	Verified   int      // exact mode: shard end states byte-matched against checkpoints
}

func (o *ShardOptions) validate() error {
	if o.Shards < 1 {
		return fmt.Errorf("checkpoint: %d shards", o.Shards)
	}
	if o.NewSystem == nil || o.Source == nil {
		return fmt.Errorf("checkpoint: NewSystem and Source are required")
	}
	if o.TotalRefs == 0 {
		return fmt.Errorf("checkpoint: TotalRefs is required")
	}
	return nil
}

// boundaries returns the window starts plus the total: boundaries[k] is
// shard k's first reference, boundaries[K] == TotalRefs.
func (o *ShardOptions) boundaries() []uint64 {
	b := make([]uint64, o.Shards+1)
	for k := 0; k <= o.Shards; k++ {
		b[k] = uint64(k) * o.TotalRefs / uint64(o.Shards)
	}
	return b
}

// ShardedRun splits the trace into opts.Shards windows, simulates them on
// worker goroutines, and returns a system holding the stitched statistics
// (shard statistics merged through the same Add paths the reports read)
// plus an outcome summary. See ShardOptions.Exact for the two modes.
func ShardedRun(opts ShardOptions) (*system.System, *ShardOutcome, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	if opts.Exact {
		return exactRun(opts)
	}
	return approxRun(opts)
}

// approxRun is the embarrassingly parallel mode: each shard is one
// RunWindow on a fresh machine over its own regenerated trace, and the
// windows' statistics are merged.
func approxRun(opts ShardOptions) (*system.System, *ShardOutcome, error) {
	bounds := opts.boundaries()
	systems := make([]*system.System, opts.Shards)
	err := sweep.Parallel(opts.Shards, opts.Workers, func(k int) error {
		sys, err := opts.NewSystem()
		if err != nil {
			return err
		}
		r, err := opts.Source()
		if err != nil {
			return err
		}
		systems[k] = sys
		return RunWindow([]*system.System{sys}, r, Window{Start: bounds[k], End: bounds[k+1], Warmup: opts.Warmup})
	})
	if err != nil {
		return nil, nil, err
	}
	merged := systems[0]
	for _, sys := range systems[1:] {
		if err := merged.MergeStatsFrom(sys); err != nil {
			return nil, nil, err
		}
	}
	return merged, &ShardOutcome{
		Mode:       "approximate",
		Shards:     opts.Shards,
		Warmup:     opts.Warmup,
		Boundaries: bounds,
	}, nil
}

// exactRun is the checkpoint-verified mode. A sequential prior pass saves
// a checkpoint at every window boundary; the shards then restore their
// starting checkpoints in parallel, re-simulate their windows, and each
// end state must encode byte-identically to the next boundary's
// checkpoint. The returned system is the last shard's — its statistics are
// cumulative from reference zero, exactly the sequential run's.
func exactRun(opts ShardOptions) (*system.System, *ShardOutcome, error) {
	bounds := opts.boundaries()

	// Prior pass: simulate sequentially, checkpointing at each boundary.
	seq, err := opts.NewSystem()
	if err != nil {
		return nil, nil, err
	}
	r, err := opts.Source()
	if err != nil {
		return nil, nil, err
	}
	cr := &countingReader{r: r}
	checks := make([]*Checkpoint, opts.Shards+1)
	if checks[0], err = Capture(seq, opts.Signature, 0); err != nil {
		return nil, nil, err
	}
	for k := 1; k <= opts.Shards; k++ {
		want := bounds[k] - bounds[k-1]
		if n, err := seq.RunRefs(cr, want); err != nil {
			return nil, nil, err
		} else if n != want {
			return nil, nil, fmt.Errorf("checkpoint: trace ended %d references into window %d", n, k-1)
		}
		if checks[k], err = Capture(seq, opts.Signature, cr.n); err != nil {
			return nil, nil, err
		}
	}

	// Parallel pass: every shard resumes its checkpoint, runs its window,
	// and must land byte-exactly on the next checkpoint.
	final := make([]*system.System, opts.Shards)
	err = sweep.Parallel(opts.Shards, opts.Workers, func(k int) error {
		sys, err := opts.NewSystem()
		if err != nil {
			return err
		}
		if err := Restore(sys, checks[k], opts.Signature); err != nil {
			return err
		}
		r, err := ResumeReader(opts.Source, checks[k])
		if err != nil {
			return err
		}
		cr := &countingReader{r: r, n: checks[k].Cursor}
		want := bounds[k+1] - bounds[k]
		if n, err := sys.RunRefs(cr, want); err != nil {
			return err
		} else if n != want {
			return fmt.Errorf("trace ended %d references into the window", n)
		}
		got, err := Capture(sys, opts.Signature, cr.n)
		if err != nil {
			return err
		}
		if !bytes.Equal(got.Encode(), checks[k+1].Encode()) {
			return fmt.Errorf("shard end state diverges from the boundary-%d checkpoint", k+1)
		}
		final[k] = sys
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	last := final[opts.Shards-1]
	last.Drain()
	return last, &ShardOutcome{
		Mode:       "exact",
		Shards:     opts.Shards,
		Boundaries: bounds,
		Verified:   opts.Shards,
	}, nil
}

// countingReader counts every record (references and context switches)
// passing through, maintaining the trace cursor checkpoints store.
type countingReader struct {
	r trace.Reader
	n uint64
}

func (c *countingReader) Next() (trace.Ref, error) {
	ref, err := c.r.Next()
	if err == nil {
		c.n++
	}
	return ref, err
}
