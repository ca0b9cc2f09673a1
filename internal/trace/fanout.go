package trace

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// Fanout reads r ahead into bufs on one helper goroutine and hands every
// batch it reads to each consumer: consumer 0 on the caller's goroutine,
// every other consumer on a goroutine of its own. It is the one read-ahead
// that drives machines from a trace.
//
//   - Reading. Only the helper calls r, and it fills only the buffers in
//     bufs, each up to its length. It never runs more than len(bufs)-1
//     batches ahead of the slowest consumer. bufs must not be empty.
//   - Delivery. Each consumer sees every batch in stream order. A batch's
//     slice is valid only until the consumer returns.
//   - Stopping. A consumer that returns false is handed nothing more. The
//     reader stops once every consumer has returned false.
//   - Errors. Fanout returns the reader's error, or nil at the end of the
//     stream, after every consumer has seen the records read before it.
//   - Panics. A panic in a consumer stops the fan-out; a panic in the
//     reader ends the stream as an error would. Either is re-raised on the
//     caller's goroutine with the same value (the lowest-numbered
//     consumer's when several panic, the reader's last).
//   - Return. Fanout returns, or re-raises, only after every helper
//     goroutine has exited, so r is never called after it returns.
func Fanout(r Reader, bufs [][]Ref, consumers ...func([]Ref) bool) error {
	if len(bufs) == 0 {
		panic("trace: Fanout without buffers")
	}
	if len(consumers) == 0 {
		return nil
	}
	type batch struct {
		buf  []Ref
		n    int
		left atomic.Int32 // consumers yet to finish with buf[:n]
	}
	// Every channel has room for all the batches, so no send blocks.
	batches := make([]batch, len(bufs))
	free := make(chan *batch, len(bufs))
	for i := range batches {
		batches[i].buf = bufs[i]
		free <- &batches[i]
	}
	queues := make([]chan *batch, len(consumers))
	for i := range queues {
		queues[i] = make(chan *batch, len(bufs))
	}
	var (
		live    atomic.Int32 // consumers that have not returned false
		stopped atomic.Bool  // set once none is live, or one has panicked
		panics  = make([]any, len(consumers)+1)
		readErr error
		wg      sync.WaitGroup
	)
	live.Store(int32(len(consumers)))

	wg.Add(len(consumers))
	go func() {
		defer wg.Done()
		defer func() {
			panics[len(consumers)] = recover()
			for _, q := range queues {
				close(q)
			}
		}()
		for b := range free {
			if stopped.Load() {
				return
			}
			var err error
			if b.n, err = FillBatch(r, b.buf); b.n > 0 {
				b.left.Store(int32(len(queues)))
				for _, q := range queues {
					q <- b
				}
			} else {
				free <- b
			}
			if err != nil {
				if !errors.Is(err, io.EOF) {
					readErr = err
				}
				return
			}
		}
	}()
	// serve hands consumer i each batch until it refuses one or the
	// fan-out stops, and releases every batch until its queue closes.
	serve := func(i int) {
		ok := true
		for b := range queues[i] {
			if ok && !stopped.Load() {
				ok = call(consumers[i], b.buf[:b.n], &panics[i])
				if !ok && (panics[i] != nil || live.Add(-1) == 0) {
					stopped.Store(true)
				}
			}
			if b.left.Add(-1) == 0 {
				free <- b
			}
		}
	}
	for i := 1; i < len(consumers); i++ {
		go func() {
			defer wg.Done()
			serve(i)
		}()
	}
	serve(0)
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
	return readErr
}

// call runs consume on refs, keeping a panic in *panicked instead of
// unwinding.
func call(consume func([]Ref) bool, refs []Ref, panicked *any) (ok bool) {
	defer func() {
		if v := recover(); v != nil {
			*panicked, ok = v, false
		}
	}()
	return consume(refs)
}
