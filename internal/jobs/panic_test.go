package jobs

import (
	"bytes"
	"errors"
	"log/slog"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

var errSourcePanic = errors.New("injected trace source panic")

// panickingTrace serves a workload's records and panics with
// errSourcePanic after 5000 of them.
type panickingTrace struct {
	trace.Reader
	left int
}

func (p *panickingTrace) Next() (trace.Ref, error) {
	if p.left == 0 {
		panic(errSourcePanic)
	}
	p.left--
	return p.Reader.Next()
}

// syncBuffer is a bytes.Buffer the manager's goroutines can log to.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJobPanicFailsOneJob makes the first job's trace source panic: that
// job ends failed with the panic as its error, its checkpoint gone and its
// stack in the log, the next job on the same Manager runs to done, and a
// restart does not resume the failed job.
func TestJobPanicFailsOneJob(t *testing.T) {
	saved := newTrace
	defer func() { newTrace = saved }()
	opened := 0 // one worker: jobs open their traces in turn
	newTrace = func(wl tracegen.Config) (trace.Reader, error) {
		opened++
		gen, err := tracegen.New(wl)
		if opened == 1 {
			return &panickingTrace{Reader: gen, left: 5_000}, err
		}
		return gen, err
	}

	var log syncBuffer
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Workers: 1, CheckpointEvery: 1_000,
		Logger: slog.New(slog.NewTextHandler(&log, nil))})
	if err != nil {
		t.Fatal(err)
	}
	const spec = `{"kind": "run", "preset": "pops", "scale": 0.005}`
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := m.Submit([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	final := make([]Status, len(ids))
	for i, id := range ids {
		st, _ := m.Get(id)
		for !Terminal(st.State) {
			time.Sleep(time.Millisecond)
			st, _ = m.Get(id)
		}
		final[i] = st
	}

	if st := final[0]; st.State != StateFailed || st.Error != "panic: "+errSourcePanic.Error() {
		t.Errorf("panicking job ended %s with error %q, want failed with %q",
			st.State, st.Error, "panic: "+errSourcePanic.Error())
	}
	if _, err := os.Stat(m.checkpointPath(ids[0])); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("panicking job's checkpoint still present: %v", err)
	}
	if st := final[1]; st.State != StateDone {
		t.Errorf("next job ended %s (%s), want done", st.State, st.Error)
	}
	if c := m.Counters(); c.Failed != 1 || c.Done != 1 {
		t.Errorf("counters %+v, want 1 failed and 1 done", c)
	}
	if out := log.String(); !strings.Contains(out, "job panicked") || !strings.Contains(out, "panickingTrace") {
		t.Errorf("log has no panic record with the stack:\n%s", out)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m, err = Open(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if st, _ := m.Get(ids[0]); st.State != StateFailed || m.Counters().Resumed != 0 {
		t.Errorf("after a restart the panicked job reads %s, %d jobs resumed; want failed, none",
			st.State, m.Counters().Resumed)
	}
}
