package system

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// runWorkload is a small two-CPU workload with sharing, procedure calls and
// context switches, a little over three Run batches long.
func runWorkload() tracegen.Config {
	return tracegen.Config{
		Name:              "runtest",
		CPUs:              2,
		TotalRefs:         3*runBatchSize + 500,
		Seed:              7,
		InstrFrac:         0.5,
		ReadFrac:          0.3,
		WriteFrac:         0.2,
		ProcsPerCPU:       2,
		CtxSwitchInterval: 1_000,
		CallProb:          0.02,
		SharedPages:       8,
		SharedFrac:        0.1,
		SharedWriteFrac:   0.3,
	}
}

// runMachine builds a fresh two-CPU machine with the workload's shared
// segment mapped.
func runMachine(t *testing.T) *System {
	t.Helper()
	s, err := New(Config{
		CPUs: 2,
		L1:   cache.Geometry{Size: 4 << 10, Block: 16, Assoc: 1},
		L2:   cache.Geometry{Size: 64 << 10, Block: 32, Assoc: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := runWorkload()
	if err := wl.SetupSharedMappings(s.MMU()); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	errRead     = errors.New("injected read failure")
	readerPanic = errors.New("injected reader panic")
)

// failingReader serves refs one record at a time and, once at records have
// been served, fails with errRead or panics with readerPanic.
type failingReader struct {
	refs   []trace.Ref
	pos    int
	at     int
	panics bool
}

func (r *failingReader) Next() (trace.Ref, error) {
	switch {
	case r.pos == r.at && r.panics:
		panic(readerPanic)
	case r.pos == r.at:
		return trace.Ref{}, errRead
	case r.pos == len(r.refs):
		return trace.Ref{}, io.EOF
	}
	r.pos++
	return r.refs[r.pos-1], nil
}

// guard wraps the reader under test and counts the records it hands out.
// Its fields are plain memory on purpose: a call that comes after Run has
// returned races with the test's write of returned, which the race detector
// reports, and is counted in late.
type guard struct {
	r        trace.Reader
	read     int
	returned bool
	late     int
}

func (g *guard) enter() {
	if g.returned {
		g.late++
	}
}

func (g *guard) Next() (trace.Ref, error) {
	g.enter()
	ref, err := g.r.Next()
	if err == nil {
		g.read++
	}
	return ref, err
}

// batchGuard is a guard over a trace.BatchReader that keeps ReadBatch
// visible, so trace.FillBatch takes the batched path.
type batchGuard struct{ *guard }

func (g batchGuard) ReadBatch(dst []trace.Ref) (int, error) {
	g.enter()
	n, err := g.r.(trace.BatchReader).ReadBatch(dst)
	g.read += n
	return n, err
}

// runInPlace is the fill-and-apply loop Run performs, kept entirely on the
// calling goroutine: the reference every read-ahead case must match.
func runInPlace(s *System, r trace.Reader) (panicked any, err error) {
	defer func() { panicked = recover() }()
	buf := make([]trace.Ref, runBatchSize)
	for {
		n, rerr := trace.FillBatch(r, buf)
		if err := s.ApplyBatch(buf[:n]); err != nil {
			return nil, err
		}
		if errors.Is(rerr, io.EOF) {
			s.Drain()
			return nil, nil
		}
		if rerr != nil {
			return nil, rerr
		}
	}
}

// runCatching is s.Run(r) with a panic turned into a return value.
func runCatching(s *System, r trace.Reader) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, s.Run(r)
}

// sameState reports, as an error, the first difference between two
// machines' reference counts, bus, memory and per-CPU statistics, and
// structural state (cache contents and write buffers, so a stray Drain
// shows).
func sameState(got, want *System) error {
	if got.Refs() != want.Refs() {
		return fmt.Errorf("Refs %d, want %d", got.Refs(), want.Refs())
	}
	if !reflect.DeepEqual(got.Bus().Stats(), want.Bus().Stats()) {
		return fmt.Errorf("bus stats %+v, want %+v", got.Bus().Stats(), want.Bus().Stats())
	}
	if !reflect.DeepEqual(got.Memory().Stats(), want.Memory().Stats()) {
		return fmt.Errorf("memory stats %+v, want %+v", got.Memory().Stats(), want.Memory().Stats())
	}
	for i := 0; i < want.CPUs(); i++ {
		if !reflect.DeepEqual(got.Stats(i), want.Stats(i)) {
			return fmt.Errorf("cpu %d stats %+v, want %+v", i, *got.Stats(i), *want.Stats(i))
		}
	}
	var gs, ws bytes.Buffer
	if err := got.AuditSnapshot().WriteJSON(&gs); err != nil {
		return err
	}
	if err := want.AuditSnapshot().WriteJSON(&ws); err != nil {
		return err
	}
	if !bytes.Equal(gs.Bytes(), ws.Bytes()) {
		return fmt.Errorf("structural snapshots differ")
	}
	return nil
}

// TestRunReadAheadContract holds System.Run's read-ahead to the results and
// error semantics of applying the same records on one goroutine: the same
// machine state, the same reader or machine error, the same panic value,
// and no reader call after Run has returned.
func TestRunReadAheadContract(t *testing.T) {
	gen := tracegen.MustNew(runWorkload())
	var refs []trace.Ref
	for {
		ref, err := gen.Next()
		if err != nil {
			break
		}
		refs = append(refs, ref)
	}
	// Four copies of the trace with a record for a CPU the machine lacks
	// inside the second batch: long enough that the read-ahead bound below
	// is tighter than the trace.
	const badAt = runBatchSize + 904
	badCPU := append(append(append(append([]trace.Ref(nil), refs...), refs...), refs...), refs...)
	badCPU[badAt] = trace.Ref{CPU: 5, Kind: trace.Read, PID: 1, Addr: addr.VAddr(0x1000)}

	slice := func(refs []trace.Ref) trace.Reader { return trace.NewSliceReader(refs) }
	failAt := func(at int, panics bool) func([]trace.Ref) trace.Reader {
		return func(refs []trace.Ref) trace.Reader {
			return &failingReader{refs: refs, at: at, panics: panics}
		}
	}
	cases := []struct {
		name    string
		refs    []trace.Ref
		source  func([]trace.Ref) trace.Reader
		batched bool   // expose ReadBatch to trace.FillBatch
		want    string // "", "read error", "panic" or "apply error"
	}{
		{"slice-reader", refs, slice, true, ""},
		{"next-only", refs, slice, false, ""},
		{"read-error-inside-batch", refs, failAt(runBatchSize+100, false), false, "read error"},
		{"read-error-on-batch-boundary", refs, failAt(2*runBatchSize, false), false, "read error"},
		{"reader-panic", refs, failAt(runBatchSize+100, true), false, "panic"},
		{"empty", nil, slice, true, ""},
		{"apply-error", badCPU, slice, true, "apply error"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reader := func() (*guard, trace.Reader) {
				g := &guard{r: tc.source(tc.refs)}
				if tc.batched {
					return g, batchGuard{g}
				}
				return g, g
			}
			ref := runMachine(t)
			_, r := reader()
			wantPanic, wantErr := runInPlace(ref, r)

			sys := runMachine(t)
			g, r := reader()
			gotPanic, gotErr := runCatching(sys, r)
			g.returned = true

			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("Run returned %v, in-place loop %v", gotErr, wantErr)
			}
			if gotPanic != wantPanic {
				t.Errorf("Run panicked with %v, in-place loop with %v", gotPanic, wantPanic)
			}
			switch tc.want {
			case "":
				if gotErr != nil || gotPanic != nil {
					t.Errorf("want a clean run, got error %v, panic %v", gotErr, gotPanic)
				}
			case "read error":
				if !errors.Is(gotErr, errRead) {
					t.Errorf("want the reader's error, got %v", gotErr)
				}
			case "panic":
				if gotPanic != readerPanic {
					t.Errorf("want the reader's panic value, got %v", gotPanic)
				}
			case "apply error":
				if gotErr == nil || errors.Is(gotErr, errRead) {
					t.Errorf("want the machine's error, got %v", gotErr)
				}
				// The failing batch's buffer never returns to the pool, so
				// the reader runs at most runAhead-1 batches past it.
				if limit := (badAt/runBatchSize + runAhead) * runBatchSize; g.read > limit {
					t.Errorf("reader served %d records, past the read-ahead bound %d", g.read, limit)
				}
			}
			if err := sameState(sys, ref); err != nil {
				t.Errorf("machine differs from the in-place loop: %v", err)
			}
			if g.late != 0 {
				t.Errorf("reader called %d times after Run returned", g.late)
			}
		})
	}
}

// TestRunAllocationsBounded checks that Run's read-ahead allocates per run,
// not per batch: on a warm machine, Run over a 10k-record trace allocates
// exactly as often as over a 100k-record one.
func TestRunAllocationsBounded(t *testing.T) {
	sys := runMachine(t)
	refs := make([]trace.Ref, 100_000)
	for i := range refs {
		refs[i] = trace.Ref{Kind: trace.Read, PID: 1, Addr: addr.VAddr(0x1000 + (i%64)*16)}
	}
	// Fault the page in and fill the lines, so the simulation itself is
	// allocation-free and only Run's own allocations are counted.
	if err := sys.ApplyBatch(refs[:1_000]); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := sys.Run(trace.NewSliceReader(refs[:n])); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(10_000), allocs(100_000); short != long {
		t.Errorf("Run allocates %v times over 10k records but %v over 100k", short, long)
	}
}
