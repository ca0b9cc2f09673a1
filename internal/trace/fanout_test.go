package trace

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
)

// fanRefs is a stream of n distinct records.
func fanRefs(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{CPU: uint8(i % 4), Kind: Kind(i % 3), PID: addr.PID(1 + i%5), Addr: addr.VAddr(i * 16)}
	}
	return refs
}

var (
	errFanRead   = errors.New("injected read failure")
	fanReadPanic = errors.New("injected reader panic")
)

// fanReader serves refs in short, uneven batches, fails with errFanRead or
// panics with fanReadPanic once failAt records have been served (failAt <
// 0: never), and counts its ReadBatch calls. Its fields are plain memory on
// purpose: a call after Fanout has returned races with the test's write of
// returned, which the race detector reports, and is counted in late.
type fanReader struct {
	refs     []Ref
	pos      int
	failAt   int
	panics   bool
	batches  int
	returned bool
	late     int
}

func (r *fanReader) Next() (Ref, error) {
	var one [1]Ref
	n, err := r.ReadBatch(one[:])
	if n == 0 {
		return Ref{}, err
	}
	return one[0], nil
}

func (r *fanReader) ReadBatch(dst []Ref) (int, error) {
	if r.returned {
		r.late++
	}
	r.batches++
	if r.pos == r.failAt {
		if r.panics {
			panic(fanReadPanic)
		}
		return 0, errFanRead
	}
	if r.pos == len(r.refs) {
		return 0, io.EOF
	}
	end := len(r.refs)
	if r.failAt >= 0 {
		end = r.failAt
	}
	// A short batch now and then: n < len(dst) with more to come.
	if short := 1 + r.batches%5; r.batches%3 == 0 && short < len(dst) {
		dst = dst[:short]
	}
	n := copy(dst, r.refs[r.pos:end])
	r.pos += n
	return n, nil
}

// fanBufs makes n buffers of size records each.
func fanBufs(n, size int) [][]Ref {
	bufs := make([][]Ref, n)
	for i := range bufs {
		bufs[i] = make([]Ref, size)
	}
	return bufs
}

// collector returns a consumer that appends every batch it is handed to
// *got, calling pace first.
func collector(got *[]Ref, pace func(batch int)) func([]Ref) bool {
	batch := 0
	return func(refs []Ref) bool {
		pace(batch)
		batch++
		*got = append(*got, refs...)
		return true
	}
}

// settled waits for the goroutine count to fall back to before, allowing
// exited goroutines a moment to be reaped.
func settled(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines left behind: %d before, %d after", before, runtime.NumGoroutine())
}

// TestFanoutConsumersSeeWholeStream runs three consumers at different
// speeds over one read-ahead: each sees exactly ReadAll's stream, in order.
func TestFanoutConsumersSeeWholeStream(t *testing.T) {
	refs := fanRefs(10_007)
	want, err := ReadAll(&fanReader{refs: refs, failAt: -1})
	if err != nil || !slices.Equal(want, refs) {
		t.Fatalf("ReadAll: %d records, %v", len(want), err)
	}
	for _, nbufs := range []int{1, 3} {
		t.Run(fmt.Sprintf("bufs%d", nbufs), func(t *testing.T) {
			r := &fanReader{refs: refs, failAt: -1}
			got := make([][]Ref, 3)
			err := Fanout(r, fanBufs(nbufs, 64),
				collector(&got[0], func(int) {}),
				collector(&got[1], func(b int) {
					if b%7 == 0 {
						time.Sleep(50 * time.Microsecond)
					}
				}),
				collector(&got[2], func(int) { runtime.Gosched() }))
			r.returned = true
			if err != nil {
				t.Fatalf("Fanout: %v", err)
			}
			for i, g := range got {
				if !slices.Equal(g, want) {
					t.Errorf("consumer %d saw %d records, not ReadAll's %d", i, len(g), len(want))
				}
			}
			if r.late != 0 {
				t.Errorf("reader called %d times after Fanout returned", r.late)
			}
		})
	}
}

// TestFanoutStopBound stops three consumers after different numbers of
// batches: each is handed nothing after it returns false, and once the last
// has stopped the reader serves at most len(bufs)-1 more batches.
func TestFanoutStopBound(t *testing.T) {
	stops := []int{3, 10, 6} // batches each consumer takes before refusing
	for _, nbufs := range []int{1, 4} {
		t.Run(fmt.Sprintf("bufs%d", nbufs), func(t *testing.T) {
			r := &fanReader{refs: fanRefs(100_000), failAt: -1}
			calls := make([]int, len(stops))
			consumers := make([]func([]Ref) bool, len(stops))
			for i, stop := range stops {
				consumers[i] = func([]Ref) bool {
					calls[i]++
					return calls[i] < stop
				}
			}
			err := Fanout(r, fanBufs(nbufs, 16), consumers...)
			r.returned = true
			if err != nil {
				t.Fatalf("Fanout: %v", err)
			}
			if !reflect.DeepEqual(calls, stops) {
				t.Errorf("consumers called %v times, want %v", calls, stops)
			}
			if limit := 10 + nbufs - 1; r.batches > limit {
				t.Errorf("reader served %d batches, past the bound %d", r.batches, limit)
			}
			if r.late != 0 {
				t.Errorf("reader called %d times after Fanout returned", r.late)
			}
		})
	}
}

// TestFanoutPanics panics in the caller's consumer, in a helper consumer
// and in the reader: Fanout re-raises the same value on the caller's
// goroutine, leaves no goroutine behind and makes no late reader call. The
// batches read before a reader panic still reach every consumer.
func TestFanoutPanics(t *testing.T) {
	refs := fanRefs(5_000)
	consumerPanic := errors.New("injected consumer panic")
	cases := []struct {
		name   string
		victim int // consumer that panics, or -1 for the reader
	}{
		{"caller-consumer", 0},
		{"helper-consumer", 2},
		{"reader", -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r := &fanReader{refs: refs, failAt: -1}
			if tc.victim < 0 {
				r.failAt, r.panics = 1_234, true
			}
			got := make([][]Ref, 3)
			consumers := make([]func([]Ref) bool, len(got))
			for i := range consumers {
				pace := func(b int) {
					if i == tc.victim && b == 4 {
						panic(consumerPanic)
					}
				}
				consumers[i] = collector(&got[i], pace)
			}
			v := func() (v any) {
				defer func() { v = recover() }()
				Fanout(r, fanBufs(3, 32), consumers...)
				return nil
			}()
			r.returned = true
			want := any(consumerPanic)
			if tc.victim < 0 {
				want = fanReadPanic
				for i, g := range got {
					if !slices.Equal(g, refs[:r.failAt]) {
						t.Errorf("consumer %d saw %d records before the reader panic, want %d", i, len(g), r.failAt)
					}
				}
			}
			if v != want {
				t.Errorf("recovered %v, want %v", v, want)
			}
			if r.late != 0 {
				t.Errorf("reader called %d times after Fanout returned", r.late)
			}
			settled(t, before)
		})
	}
}

// TestFanoutReaderError fails the reader inside a batch and on a batch
// boundary: Fanout returns the reader's error after every consumer has
// seen exactly the records read before it.
func TestFanoutReaderError(t *testing.T) {
	refs := fanRefs(5_000)
	for _, at := range []int{0, 1_001, 2_048} {
		t.Run(fmt.Sprint(at), func(t *testing.T) {
			r := &fanReader{refs: refs, failAt: at}
			got := make([][]Ref, 2)
			err := Fanout(r, fanBufs(2, 32),
				collector(&got[0], func(int) {}),
				collector(&got[1], func(int) { runtime.Gosched() }))
			r.returned = true
			if !errors.Is(err, errFanRead) {
				t.Fatalf("Fanout returned %v, want the reader's error", err)
			}
			for i, g := range got {
				if !slices.Equal(g, refs[:at]) {
					t.Errorf("consumer %d saw %d records before the error, want %d", i, len(g), at)
				}
			}
			if r.late != 0 {
				t.Errorf("reader called %d times after Fanout returned", r.late)
			}
		})
	}
}
