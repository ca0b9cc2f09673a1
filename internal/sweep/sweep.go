// Package sweep is the single-pass multi-configuration simulation engine.
//
// The paper's evaluation is a sweep: every table runs the same trace through
// many machine configurations. Generating the workload once and fanning the
// reference stream out to N independent systems removes the dominant
// regenerate-per-configuration cost (trace synthesis is roughly a third of a
// run) and lets the configurations simulate concurrently — they are fully
// independent given the trace, so after the broadcast this is embarrassingly
// parallel, the classic trace-driven-simulator structure of DineroIV and
// gem5 trace replay.
//
// Run streams the trace through trace.Fanout, the same read-ahead
// System.Run uses: one helper goroutine reads the trace, and the systems
// are partitioned into one contiguous group per worker (GOMAXPROCS by
// default, at most one per system). Group 0 runs on the caller's
// goroutine and every other group on a goroutine of its own, so a batch is
// handed over once per group, not once per system, and a worker streams a
// whole batch through each of its systems in turn. The batch buffers are
// allocated once per Run and recycled, so the steady state allocates
// nothing. Each system consumes its batches in stream order on one
// goroutine, so it observes exactly the reference stream a sequential run
// would: per-system results are bit-identical to running that
// configuration alone, whatever the worker count (see
// TestSweepMatchesSequential and TestSweepModesIdentical).
//
// Parallel is the complementary primitive for independent jobs.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/system"
	"repro/internal/trace"
)

// Options tunes the engine. The zero value is ready to use: batch size,
// queue depth and worker count adapt to GOMAXPROCS and the system count.
type Options struct {
	// BatchSize is the length of each read-ahead buffer, in trace records.
	// When 0 it adapts: 4096 records as the base, scaled up (to at most
	// 64k) with the number of systems each worker owns, so that a worker
	// streams a longer run of references through one system before
	// touching the next system's tag stores — the fewer the workers, the
	// more the batch size matters for last-level-cache locality.
	BatchSize int
	// QueueDepth is the number of buffers per worker (default 4), so the
	// reader holds Workers×QueueDepth buffers and runs at most that many
	// batches, less one, ahead of the slowest worker.
	QueueDepth int
	// Workers is the number of system groups, each driven by one goroutine:
	// 0 means min(GOMAXPROCS, number of systems). Group 0 runs on the
	// caller's goroutine; with one worker every system does, and only the
	// reader runs on a helper goroutine.
	Workers int
}

// maxBatchSize caps the adaptive batch size (64k records ≈ 1.5 MB).
const maxBatchSize = 1 << 16

// resolve fills in the adaptive defaults for n systems and returns the
// worker count to use.
func (o *Options) resolve(n int) (workers int) {
	workers = o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 4096
		// Scale the batch with the systems-per-worker ratio: a worker that
		// owns k systems touches k tag stores per batch, so longer batches
		// amortize the cache refills across proportionally more references.
		if workers > 0 {
			k := (n + workers - 1) / workers
			for s := o.BatchSize; k > 1 && s < maxBatchSize; k /= 2 {
				s *= 2
				o.BatchSize = s
			}
		}
	}
	return workers
}

// Parallel runs jobs 0..n-1 on at most workers goroutines (GOMAXPROCS when
// workers <= 0) and waits for all of them. Every job runs even after a
// failure; the error of the lowest-indexed failing job is returned, so the
// result is deterministic regardless of scheduling. A job's panic is
// recovered on its worker and the other jobs still run; once every worker
// has stopped, the panic of the lowest-indexed panicking job is re-raised
// on the caller's goroutine as a *PanicError carrying the job's value and
// the stack it panicked on. The sweep engine's fan-out covers many systems
// on one trace; Parallel is the complementary primitive — independent
// jobs — used by the autotuner's cell scheduler.
func Parallel(n, workers int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	panics := make([]*PanicError, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				panics[i], errs[i] = runJob(job, i)
			}
		}()
	}
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sweep: job %d: %w", i, err)
		}
	}
	return nil
}

// PanicError is the value Parallel re-raises when a job panics: the job's
// own panic value and the stack of the worker goroutine where it panicked,
// which the re-raise on the caller's goroutine would otherwise lose.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the job's panic value and its stack, so a re-raise that
// nobody recovers still prints where the job panicked.
func (p *PanicError) Error() string { return fmt.Sprintf("%v\n\n%s", p.Value, p.Stack) }

// runJob runs job i, returning its panic, with the stack it happened on,
// instead of unwinding the worker.
func runJob(job func(i int) error, i int) (panicked *PanicError, err error) {
	defer func() {
		if v := recover(); v != nil {
			panicked = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return nil, job(i)
}

// Run reads r once and drives every system with the full stream, through
// trace.Fanout: the systems are split into one contiguous group per
// worker, each group is one consumer, and group 0 runs on the caller's
// goroutine. Each system sees the whole stream in order, so its results
// are bit-identical to running it alone. At the end of the stream every
// system's write buffers are drained, as System.Run would.
//
// A reader error is returned once every system has applied the records
// read before it, and no system is drained. A system's error stops that
// system only; the others run the whole stream, and the lowest-indexed
// system error is returned, annotated with its index. A panic in the
// reader or a system is re-raised on the caller's goroutine after every
// helper goroutine has exited.
func Run(r trace.Reader, systems []*system.System, opts Options) error {
	if len(systems) == 0 {
		return nil
	}
	workers := opts.resolve(len(systems))
	errs := make([]error, len(systems))
	bufs := make([][]trace.Ref, workers*opts.QueueDepth)
	for i := range bufs {
		bufs[i] = make([]trace.Ref, opts.BatchSize)
	}
	groups := make([]func([]trace.Ref) bool, workers)
	for w := range groups {
		// Contiguous partition: group w owns systems [lo, hi).
		lo, hi := w*len(systems)/workers, (w+1)*len(systems)/workers
		group, gerrs := systems[lo:hi], errs[lo:hi]
		groups[w] = func(refs []trace.Ref) bool {
			live := false
			for i, s := range group {
				if gerrs[i] == nil {
					gerrs[i] = s.ApplyBatch(refs)
					live = live || gerrs[i] == nil
				}
			}
			return live
		}
	}
	if err := trace.Fanout(r, bufs, groups...); err != nil {
		return err
	}
	for i, s := range systems {
		if errs[i] == nil {
			s.Drain()
		}
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sweep: system %d: %w", i, err)
		}
	}
	return nil
}
