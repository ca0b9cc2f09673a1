// Package checkpoint serializes a running simulation and brings it back:
// a Checkpoint captures the whole machine — caches, TLBs, buffers, page
// tables, memory tokens, statistics and cycle clocks — plus the position
// in the deterministic trace, in a versioned canonical binary format. A
// restored run continues byte-for-byte identically to one that was never
// interrupted, which the package's differential tests verify against the
// full JSON report.
//
// On top of checkpoints the package builds time-sharded execution
// (ShardedRun): the trace is split into K windows, regenerated per shard
// from the seed, simulated on worker goroutines and stitched back
// together. Exact mode resumes each window from a checkpoint written by a
// sequential prior pass and byte-compares every shard's end state against
// the next checkpoint — as much a verification harness for Save/Restore as
// a parallel runner. Approximate mode runs each shard as one RunWindow on a
// fresh machine — the skipped prefix only walks the MMU, a prefix of
// references warms the caches — trading exactness for an embarrassingly
// parallel run whose hit ratios match the sequential ones within a stated
// tolerance.
package checkpoint

import (
	"fmt"
	"os"

	"repro/internal/system"
	"repro/internal/trace"
)

// Checkpoint is one saved machine state plus its provenance: a fingerprint
// of the configuration and workload that produced it, and the trace cursor
// (records consumed, context switches included) at which it was taken.
type Checkpoint struct {
	Signature string
	Cursor    uint64
	Machine   *system.MachineState
}

// Capture exports sys into a checkpoint taken at the given trace cursor.
// The signature should identify both the machine configuration and the
// deterministic workload (tracegen.Config.Signature plus the system
// configuration), so Restore can refuse a mismatched resume.
func Capture(sys *system.System, signature string, cursor uint64) (*Checkpoint, error) {
	m, err := sys.ExportState()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{Signature: signature, Cursor: cursor, Machine: m}, nil
}

// Restore loads c into sys, which must have been built from the same
// configuration the checkpoint was captured from; the caller proves it by
// presenting the matching signature. The caller is responsible for
// positioning the trace reader at c.Cursor (trace.Skip on a regenerated
// stream).
func Restore(sys *system.System, c *Checkpoint, signature string) error {
	if c.Machine == nil {
		return fmt.Errorf("checkpoint: no machine state")
	}
	if c.Signature != signature {
		return fmt.Errorf("checkpoint: signature mismatch:\n  checkpoint: %s\n  this run:   %s", c.Signature, signature)
	}
	return sys.RestoreState(c.Machine)
}

// WriteFile encodes c to path.
func WriteFile(path string, c *Checkpoint) error {
	return os.WriteFile(path, c.Encode(), 0o644)
}

// ReadFile decodes a checkpoint from path.
func ReadFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// ResumeReader regenerates a trace via source and positions it at c's
// cursor, returning the reader ready for the next record.
func ResumeReader(source func() (trace.Reader, error), c *Checkpoint) (trace.Reader, error) {
	r, err := source()
	if err != nil {
		return nil, err
	}
	skipped, err := trace.Skip(r, c.Cursor)
	if err != nil {
		return nil, err
	}
	if skipped != c.Cursor {
		return nil, fmt.Errorf("checkpoint: trace ended after %d of %d records — wrong workload?", skipped, c.Cursor)
	}
	return r, nil
}
