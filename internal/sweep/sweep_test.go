package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/probe"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// testWorkload is a small multiprocess workload with sharing and context
// switches, so the sweep exercises coherence, synonyms and write buffers.
func testWorkload() tracegen.Config {
	return tracegen.Config{
		Name:              "sweeptest",
		CPUs:              2,
		TotalRefs:         30_000,
		Seed:              42,
		InstrFrac:         0.5,
		ReadFrac:          0.3,
		WriteFrac:         0.2,
		ProcsPerCPU:       2,
		CtxSwitchInterval: 2_500,
		CallProb:          0.02,
		SharedPages:       8,
		SharedFrac:        0.1,
		SharedWriteFrac:   0.3,
	}
}

func testConfigs(tc tracegen.Config) []system.Config {
	base := system.Config{
		CPUs:     tc.CPUs,
		PageSize: tc.PageSize,
		L1:       cache.Geometry{Size: 4 << 10, Block: 16, Assoc: 1},
		L2:       cache.Geometry{Size: 64 << 10, Block: 32, Assoc: 1},
	}
	var scs []system.Config
	for _, org := range []system.Organization{system.VR, system.RRInclusion, system.RRNoInclusion} {
		sc := base
		sc.Organization = org
		scs = append(scs, sc)
	}
	sc := base
	sc.Organization = system.VR
	sc.L1.Size = 16 << 10
	sc.L2.Size = 256 << 10
	scs = append(scs, sc)
	return scs
}

func buildSystems(t *testing.T, tc tracegen.Config, scs []system.Config) []*system.System {
	t.Helper()
	systems := make([]*system.System, len(scs))
	for i, sc := range scs {
		sys, err := system.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.SetupSharedMappings(sys.MMU()); err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	return systems
}

// snapshot captures everything a table or figure could read from a system.
type snapshot struct {
	Refs      uint64
	Agg       system.AggregateStats
	Coherence []uint64
	PerCPU    []string
}

func snap(s *system.System) snapshot {
	sn := snapshot{Refs: s.Refs(), Agg: s.Aggregate(), Coherence: s.CoherenceMessages()}
	for i := 0; i < s.CPUs(); i++ {
		st := s.Stats(i)
		sn.PerCPU = append(sn.PerCPU, fmt.Sprintf(
			"l1=%+v l2=%+v tlb=%+v wb=%d swapped=%d eager=%d incl=%d stalls=%d ctx=%d syn=%v coh=%d",
			st.L1, st.L2, st.TLB, st.WriteBacks, st.SwappedWriteBacks,
			st.EagerFlushWriteBacks, st.InclusionInvals, st.BufferStalls,
			st.CtxSwitches, st.Synonyms, st.Coherence.Total()))
	}
	return sn
}

// TestSweepMatchesSequential is the determinism guarantee: every system in a
// sweep produces counters identical to running that configuration alone on
// its own freshly generated trace.
func TestSweepMatchesSequential(t *testing.T) {
	tc := testWorkload()
	scs := testConfigs(tc)

	want := make([]snapshot, len(scs))
	for i, sc := range scs {
		sys := buildSystems(t, tc, []system.Config{sc})[0]
		if err := sys.Run(tracegen.MustNew(tc)); err != nil {
			t.Fatalf("sequential run %d: %v", i, err)
		}
		want[i] = snap(sys)
	}

	systems := buildSystems(t, tc, scs)
	if err := Run(tracegen.MustNew(tc), systems, Options{}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for i, sys := range systems {
		if got := snap(sys); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("system %d diverged from sequential run:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// TestSweepSmallBatches forces batch boundaries to land mid-stream and the
// reader to cycle its buffers.
func TestSweepSmallBatches(t *testing.T) {
	tc := testWorkload()
	tc.TotalRefs = 5_001
	scs := testConfigs(tc)[:2]

	seq := buildSystems(t, tc, scs[:1])[0]
	if err := seq.Run(tracegen.MustNew(tc)); err != nil {
		t.Fatal(err)
	}

	systems := buildSystems(t, tc, scs)
	if err := Run(tracegen.MustNew(tc), systems, Options{BatchSize: 7, QueueDepth: 1}); err != nil {
		t.Fatal(err)
	}
	if got, want := snap(systems[0]), snap(seq); !reflect.DeepEqual(got, want) {
		t.Errorf("tiny batches diverged:\n got %+v\nwant %+v", got, want)
	}
	if systems[1].Refs() != systems[0].Refs() {
		t.Errorf("systems saw different streams: %d vs %d refs", systems[0].Refs(), systems[1].Refs())
	}
}

func TestSweepEmptyAndSingle(t *testing.T) {
	if err := Run(trace.NewSliceReader(nil), nil, Options{}); err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
	tc := testWorkload()
	tc.TotalRefs = 1_000
	systems := buildSystems(t, tc, testConfigs(tc)[:1])
	if err := Run(tracegen.MustNew(tc), systems, Options{}); err != nil {
		t.Fatalf("single-system sweep: %v", err)
	}
	if systems[0].Refs() != 1_000 {
		t.Errorf("Refs = %d, want 1000", systems[0].Refs())
	}
}

// callerReader wraps a reader and counts the records read on and off the
// goroutine that built it.
type callerReader struct {
	trace.Reader
	owner      string
	home, away int
}

func newCallerReader(r trace.Reader) *callerReader {
	return &callerReader{Reader: r, owner: goroutineID()}
}

func (r *callerReader) Next() (trace.Ref, error) {
	if goroutineID() == r.owner {
		r.home++
	} else {
		r.away++
	}
	return r.Reader.Next()
}

// callerSink counts the probe events emitted on and off the goroutine that
// built it.
type callerSink struct {
	owner      string
	home, away int
}

func (s *callerSink) Event(probe.Event) {
	if goroutineID() == s.owner {
		s.home++
	} else {
		s.away++
	}
}

// goroutineID returns the running goroutine's number, parsed from the
// "goroutine N [running]:" header of its stack trace.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestSweepSingleWorkersOneOnCaller holds a one-system sweep to the
// contract of every worker count, Workers: 1 included: the machine, and so
// every event its probe sinks receive, runs on the caller's goroutine, and
// the trace is read on a helper goroutine. Both see the whole stream.
func TestSweepSingleWorkersOneOnCaller(t *testing.T) {
	tc := testWorkload()
	tc.TotalRefs = 1_000
	for _, workers := range []int{1, 0, 2} {
		sc := testConfigs(tc)[0]
		sc.Probe = probe.New()
		sink := &callerSink{owner: goroutineID()}
		sc.Probe.AddSink(sink)
		systems := buildSystems(t, tc, []system.Config{sc})
		r := newCallerReader(tracegen.MustNew(tc))
		if err := Run(r, systems, Options{Workers: workers}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if systems[0].Refs() != 1_000 {
			t.Errorf("workers %d: Refs = %d, want 1000", workers, systems[0].Refs())
		}
		if sink.home == 0 || sink.away != 0 {
			t.Errorf("workers %d: %d probe events on the caller's goroutine, %d off it; want all on it",
				workers, sink.home, sink.away)
		}
		if r.away == 0 || r.home != 0 {
			t.Errorf("workers %d: %d records read on the caller's goroutine, %d off it; want all off it",
				workers, r.home, r.away)
		}
	}
}

// TestSweepSystemError proves a failing system fails a one-worker sweep
// with its index, while the healthy systems in its group finish the stream.
func TestSweepSystemError(t *testing.T) {
	checkSystemError(t, 1)
}

// TestSweepStealingSystemError proves the same on the grouped multi-worker
// shape, where the failing system shares a group with a healthy one, and
// that neither the reader nor the groups deadlock. The name dates
// from the removed work-stealing shape, whose error path it used to run.
func TestSweepStealingSystemError(t *testing.T) {
	checkSystemError(t, 2)
}

// checkSystemError sweeps three systems on the given worker count, with
// system 1 too small for the trace, and checks that the error names system
// 1 and that systems 0 and 2 still run all the records.
func checkSystemError(t *testing.T, workers int) {
	t.Helper()
	tc := testWorkload()
	tc.TotalRefs = 10_000
	scs := testConfigs(tc)[:3]
	scs[1].CPUs = 1 // records for CPU 1 will error on this system
	systems := buildSystems(t, tc, scs)
	err := Run(tracegen.MustNew(tc), systems, Options{Workers: workers, BatchSize: 64})
	if err == nil {
		t.Fatal("sweep with an undersized system did not error")
	}
	if want := "sweep: system 1:"; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q does not identify system 1", err)
	}
	if systems[0].Refs() != 10_000 || systems[2].Refs() != 10_000 {
		t.Errorf("healthy systems did not finish: %d and %d refs",
			systems[0].Refs(), systems[2].Refs())
	}
}

// errReader fails after a few records.
type errReader struct{ n int }

func (r *errReader) Next() (trace.Ref, error) {
	if r.n == 0 {
		return trace.Ref{}, fmt.Errorf("trace decode failure")
	}
	r.n--
	return trace.Ref{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x1000}, nil
}

func TestSweepReaderError(t *testing.T) {
	tc := testWorkload()
	systems := buildSystems(t, tc, testConfigs(tc)[:2])
	err := Run(&errReader{n: 100}, systems, Options{BatchSize: 16})
	if err == nil || err.Error() != "trace decode failure" {
		t.Fatalf("reader error not propagated: %v", err)
	}
}

var (
	errCut      = errors.New("trace cut short")
	readerPanic = errors.New("injected reader panic")
)

// cutReader serves a slice of records, then fails with errCut, or panics
// with readerPanic, where a clean trace would end.
type cutReader struct {
	*trace.SliceReader
	panics bool
}

func (r cutReader) cut(err error) error {
	if errors.Is(err, io.EOF) {
		if r.panics {
			panic(readerPanic)
		}
		return errCut
	}
	return err
}

func (r cutReader) Next() (trace.Ref, error) {
	ref, err := r.SliceReader.Next()
	return ref, r.cut(err)
}

func (r cutReader) ReadBatch(dst []trace.Ref) (int, error) {
	n, err := r.SliceReader.ReadBatch(dst)
	return n, r.cut(err)
}

// machineState is everything snap reports plus the structural snapshot,
// whose write buffers show whether a machine was drained.
func machineState(t *testing.T, s *system.System) string {
	t.Helper()
	var js bytes.Buffer
	if err := s.AuditSnapshot().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v\n%s", snap(s), js.Bytes())
}

// TestSweepReaderErrorUndrained cuts the trace with a reader error after n
// records: under every worker count, each machine is byte-identical to the
// same n records applied in place with no Drain.
func TestSweepReaderErrorUndrained(t *testing.T) {
	tc := testWorkload()
	scs := testConfigs(tc)
	refs, err := trace.ReadAll(tracegen.MustNew(tc))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1001, 2222, 5003, 7777, 10000, 12345} {
		want := make([]string, len(scs))
		for i, sys := range buildSystems(t, tc, scs) {
			if err := sys.ApplyBatch(refs[:n]); err != nil {
				t.Fatal(err)
			}
			want[i] = machineState(t, sys)
		}
		for _, workers := range []int{1, 2, 4} {
			systems := buildSystems(t, tc, scs)
			err := Run(cutReader{SliceReader: trace.NewSliceReader(refs[:n])}, systems, Options{Workers: workers})
			if !errors.Is(err, errCut) {
				t.Fatalf("n %d, workers %d: Run returned %v, want the reader's error", n, workers, err)
			}
			for i, sys := range systems {
				if got := machineState(t, sys); got != want[i] {
					t.Errorf("n %d, workers %d: system %d differs from %d records applied in place",
						n, workers, i, n)
				}
			}
		}
	}
}

// TestSweepReaderPanic panics in the reader: under every worker count the
// caller recovers the reader's own value, and no goroutine is left behind.
func TestSweepReaderPanic(t *testing.T) {
	tc := testWorkload()
	tc.TotalRefs = 10_000
	refs, err := trace.ReadAll(tracegen.MustNew(tc))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		systems := buildSystems(t, tc, testConfigs(tc))
		before := runtime.NumGoroutine()
		v := func() (v any) {
			defer func() { v = recover() }()
			Run(cutReader{SliceReader: trace.NewSliceReader(refs[:5003]), panics: true}, systems, Options{Workers: workers})
			return nil
		}()
		if v != readerPanic {
			t.Errorf("workers %d: recovered %v, want the reader's panic value", workers, v)
		}
		settled(t, before)
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

// TestSweepModesIdentical proves that every worker count — one group on the
// caller's goroutine, or several across goroutines — across batch sizes
// and queue depths produces per-system results byte-identical to the
// sequential single-system runs.
func TestSweepModesIdentical(t *testing.T) {
	tc := testWorkload()
	scs := testConfigs(tc)

	want := make([]snapshot, len(scs))
	for i, sc := range scs {
		sys := buildSystems(t, tc, []system.Config{sc})[0]
		if err := sys.Run(tracegen.MustNew(tc)); err != nil {
			t.Fatal(err)
		}
		want[i] = snap(sys)
	}

	modes := []Options{
		{Workers: 1},
		{Workers: 1, BatchSize: 33},
		{Workers: 2},
		{Workers: len(scs)},
		{Workers: 2, BatchSize: 129, QueueDepth: 1},
		{Workers: 3, BatchSize: 4096, QueueDepth: 2},
	}
	for _, opts := range modes {
		// "stealfalse" keeps the subtest names stable from when a
		// work-stealing shape existed.
		name := fmt.Sprintf("w%d_stealfalse_b%d_q%d", opts.Workers, opts.BatchSize, opts.QueueDepth)
		t.Run(name, func(t *testing.T) {
			systems := buildSystems(t, tc, scs)
			if err := Run(tracegen.MustNew(tc), systems, opts); err != nil {
				t.Fatal(err)
			}
			for i, sys := range systems {
				if got := snap(sys); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("system %d diverged under %+v", i, opts)
				}
			}
		})
	}
}

// TestParallelFirstErrorWins proves Parallel's error is deterministic: the
// lowest-indexed failing job is reported no matter how workers interleave,
// and every job still runs.
func TestParallelFirstErrorWins(t *testing.T) {
	const n = 64
	var ran [n]atomic.Bool
	err := Parallel(n, 8, func(i int) error {
		ran[i].Store(true)
		if i == 7 || i == 11 || i == 50 {
			return fmt.Errorf("job %d boom", i)
		}
		return nil
	})
	if err == nil || err.Error() != "sweep: job 7: job 7 boom" {
		t.Fatalf("err = %v, want the lowest-indexed failure (job 7)", err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("job %d never ran after a failure elsewhere", i)
		}
	}
}

// TestParallelPanic panics in two jobs: every job still runs, the caller
// recovers the lowest-indexed job's own value, and no worker is left
// behind.
func TestParallelPanic(t *testing.T) {
	const n = 64
	boom := []*int{new(int), new(int)}
	var ran [n]atomic.Bool
	before := runtime.NumGoroutine()
	v := func() (v any) {
		defer func() { v = recover() }()
		Parallel(n, 8, func(i int) error {
			ran[i].Store(true)
			switch i {
			case 9:
				panic(boom[0])
			case 40:
				panic(boom[1])
			}
			return nil
		})
		return nil
	}()
	if v != boom[0] {
		t.Errorf("recovered %v, want job 9's panic value %p", v, boom[0])
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("job %d never ran after a panic elsewhere", i)
		}
	}
	settled(t, before)
}

// TestParallelDrains proves all workers exit after Parallel returns (no
// goroutine leak) and that the job count is exact.
func TestParallelDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	var count atomic.Int64
	if err := Parallel(100, 5, func(i int) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Errorf("ran %d jobs, want 100", count.Load())
	}
	// Workers are joined by wg.Wait before Parallel returns, so the
	// goroutine count settles immediately; a small retry loop absorbs
	// unrelated runtime goroutines winding down.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestParallelZeroJobs covers the degenerate sizes.
func TestParallelZeroJobs(t *testing.T) {
	if err := Parallel(0, 4, func(int) error { return fmt.Errorf("ran") }); err != nil {
		t.Fatalf("zero jobs: %v", err)
	}
	if err := Parallel(3, 0, func(int) error { return nil }); err != nil {
		t.Fatalf("default workers: %v", err)
	}
}
