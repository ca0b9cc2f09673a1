// Package checkpoint serializes a running simulation and brings it back:
// a Checkpoint captures the whole machine — caches, TLBs, buffers, page
// tables, memory tokens, statistics and cycle clocks — plus the position
// in the deterministic trace, in a versioned canonical binary format. A
// restored run continues byte-for-byte identically to one that was never
// interrupted, which the package's differential tests verify against the
// full JSON report and, window by window, against the encoded state at
// every checkpoint of a sequential run.
//
// The package also holds Prefix and RunWindow, the shared skip and the
// warm-up and measure loop the autotuner's probe windows run on.
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
// positioning the trace reader at c.Cursor (ResumeReader on a regenerated
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

// ResumeReader positions r, a trace replayed from its first record, at
// cursor: it skips that many records, context switches included, and fails
// when the trace ends first.
func ResumeReader(r trace.Reader, cursor uint64) error {
	skipped, err := trace.Skip(r, cursor)
	if err != nil {
		return err
	}
	if skipped != cursor {
		return fmt.Errorf("checkpoint: trace ended after %d of %d records — wrong workload?", skipped, cursor)
	}
	return nil
}
