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
// The engine picks an execution shape from the worker budget (GOMAXPROCS by
// default) rather than always spawning one goroutine per system:
//
//   - One worker: a chunked system-major loop on the caller's goroutine. A
//     large shared batch is read once and applied to every system in turn,
//     so each system streams through tens of thousands of references while
//     its tag stores stay cache-resident, instead of all N tag stores
//     rotating through the last-level cache every small batch. No
//     goroutines, channels or atomics at all.
//   - More workers than one: systems are partitioned into one contiguous
//     group per worker. Each batch is reference-counted by the number of
//     groups (not systems) and delivered once per group, cutting the
//     per-batch channel operations and refcount cache-line traffic from N
//     to W.
//
// Batches are reference-counted and recycled through a free pool, so the
// steady state allocates nothing. In both shapes each system consumes its
// batches in stream order from one worker at a time, so it observes exactly
// the reference stream a sequential run would: per-system results are
// bit-identical to running that configuration alone, regardless of shape or
// worker count (see TestSweepMatchesSequential and TestSweepModesIdentical).
package sweep

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/system"
	"repro/internal/trace"
)

// Options tunes the engine. The zero value is ready to use: batch size,
// queue depth and worker count adapt to GOMAXPROCS and the system count,
// and the worker count alone picks the execution shape.
type Options struct {
	// BatchSize is the number of trace records per broadcast batch. When 0
	// it adapts: 4096 records as the base, scaled up (to at most 64k) with
	// the number of systems each worker owns, so that a worker streams a
	// longer run of references through one system before touching the next
	// system's tag stores — the fewer the workers, the more the batch size
	// matters for last-level-cache locality.
	BatchSize int
	// QueueDepth is the number of batches that may queue per consumer
	// before the broadcaster blocks (default 4). It bounds how far a fast
	// consumer can run ahead of the slowest one.
	QueueDepth int
	// Workers bounds the consumer goroutines. 0 means min(GOMAXPROCS,
	// number of systems). 1 selects the sequential chunked mode on the
	// caller's goroutine.
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
// result is deterministic regardless of scheduling. The sweep engine's
// fan-out covers many systems on one trace; Parallel is the complementary
// primitive — independent jobs — used by the autotuner's cell scheduler.
func Parallel(n, workers int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
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
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sweep: job %d: %w", i, err)
		}
	}
	return nil
}

// batch is one broadcast unit: a shared read-only slice of records and the
// count of consumers still holding it.
type batch struct {
	refs []trace.Ref
	left atomic.Int32
}

// Run reads r once and drives every system with the full stream. When the
// stream ends every system's write buffers are drained, as System.Run
// would. The first error from the reader or from any system aborts the
// sweep and is returned (system errors are annotated with the system's
// index; the lowest-indexed system error wins, deterministically); the
// remaining systems still consume the stream already broadcast, so Run
// never deadlocks on error.
//
// With Workers: 1, r is read and every system simulated on the caller's
// goroutine, whatever the system count. Otherwise a single system is
// handed to System.Run, which reads r ahead on one helper goroutine.
func Run(r trace.Reader, systems []*system.System, opts Options) error {
	if len(systems) == 0 {
		return nil
	}
	if len(systems) == 1 && opts.Workers != 1 {
		// No fan-out needed: System.Run reads ahead on a helper goroutine
		// and simulates on this one. Workers: 1 promises no goroutines, so
		// it takes runSequential below instead.
		return systems[0].Run(r)
	}
	workers := opts.resolve(len(systems))
	errs := make([]error, len(systems))
	var readErr error
	if workers == 1 {
		readErr = runSequential(r, systems, opts, errs)
	} else {
		readErr = runGrouped(r, systems, opts, workers, errs)
	}
	if readErr != nil {
		return readErr
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sweep: system %d: %w", i, err)
		}
	}
	return nil
}

// runSequential is the one-worker mode: system-major chunked application on
// the caller's goroutine. One shared buffer, no synchronization.
func runSequential(r trace.Reader, systems []*system.System, opts Options, errs []error) error {
	buf := make([]trace.Ref, opts.BatchSize)
	for {
		n, err := trace.FillBatch(r, buf[:cap(buf)])
		if n > 0 {
			for i, s := range systems {
				if errs[i] == nil {
					errs[i] = s.ApplyBatch(buf[:n])
				}
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return err
			}
			break
		}
	}
	for i, s := range systems {
		if errs[i] == nil {
			s.Drain()
		}
	}
	return nil
}

// newPool builds the batch free pool: capacity for every consumer queue to
// be full plus one batch being filled and one being consumed.
func newPool(consumers int, opts Options) chan *batch {
	nBatches := consumers*opts.QueueDepth + 2
	// Bound the pool's memory footprint (~1M in-flight records) as batches
	// grow: backpressure matters more than queue depth at large batches.
	if limit := 1 << 20 / opts.BatchSize; nBatches > limit && limit >= 3 {
		nBatches = limit
	}
	if nBatches > 64 {
		nBatches = 64
	}
	free := make(chan *batch, nBatches)
	for i := 0; i < nBatches; i++ {
		free <- &batch{refs: make([]trace.Ref, opts.BatchSize)}
	}
	return free
}

// broadcast reads batches from r and delivers each to every channel in
// chans, recycling through free. deliver's refcount is len(chans).
func broadcast(r trace.Reader, chans []chan *batch, free chan *batch) error {
	var readErr error
	for {
		b := <-free
		b.refs = b.refs[:cap(b.refs)]
		n, err := trace.FillBatch(r, b.refs)
		if n > 0 {
			b.refs = b.refs[:n]
			b.left.Store(int32(len(chans)))
			for _, ch := range chans {
				ch <- b
			}
		} else {
			free <- b
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				readErr = err
			}
			break
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	return readErr
}

// runGrouped is the multi-worker mode: systems are partitioned into
// one contiguous group per worker, and each batch is delivered once per
// group. The group applies it to its systems in system order.
func runGrouped(r trace.Reader, systems []*system.System, opts Options, workers int, errs []error) error {
	free := newPool(workers, opts)
	chans := make([]chan *batch, workers)
	for i := range chans {
		chans[i] = make(chan *batch, opts.QueueDepth)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Contiguous partition: group w owns systems [lo, hi).
		lo := w * len(systems) / workers
		hi := (w + 1) * len(systems) / workers
		wg.Add(1)
		go func(group []*system.System, gerrs []error, in <-chan *batch) {
			defer wg.Done()
			for b := range in {
				for i, s := range group {
					if gerrs[i] == nil {
						gerrs[i] = s.ApplyBatch(b.refs)
					}
				}
				// Always release, even after an error, so the pool keeps
				// cycling and the broadcaster cannot block forever.
				if b.left.Add(-1) == 0 {
					free <- b
				}
			}
			for i, s := range group {
				if gerrs[i] == nil {
					s.Drain()
				}
			}
		}(systems[lo:hi], errs[lo:hi], chans[w])
	}

	readErr := broadcast(r, chans, free)
	wg.Wait()
	return readErr
}
