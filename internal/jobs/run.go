package jobs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/autotune"
	"repro/internal/checkpoint"
	"repro/internal/cycles"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// SweepReport is a sweep job's report document: one Results per submitted
// machine, in submission order.
type SweepReport struct {
	Preset  string              `json:"preset"`
	Scale   float64             `json:"scale"`
	Configs []SweepConfigReport `json:"configs"`
}

// SweepConfigReport is one machine's labeled results within a sweep.
type SweepConfigReport struct {
	Label   string         `json:"label"`
	Results report.Results `json:"results"`
}

// runSim executes a run or sweep job: build every machine, restore from the
// job's checkpoint if one exists, then stream the regenerated trace through
// all systems in a chunked system-major loop (the sweep engine's sequential
// mode, inlined here so the loop can checkpoint and cancel at batch
// boundaries without draining mid-stream). The report is built exactly as
// cmd/vrsim's -json path builds it, minus the probe section — the progress
// probe is ephemeral (not checkpointed), and excluding it is what makes
// resumed reports byte-identical to uninterrupted ones.
func (m *Manager) runSim(ctx context.Context, j *job) ([]byte, error) {
	wl := j.cfg.workload()
	machines, err := j.cfg.machines(wl)
	if err != nil {
		return nil, err
	}
	timed := j.cfg.Timed
	params := j.cfg.cycleParams()

	// The progress probe rides machine 0 only: windows feed Status.Window
	// and the job's persisted time-series through the recorder, and the
	// per-batch record counter feeds Status.Records either way.
	pr := probe.New()
	windows := probe.NewWindows(m.opt.ProgressEvery)
	rec := m.newRecorder(j)
	windows.OnClose = rec.onWindow
	pr.AddSink(windows)
	if m.opt.SpanSampleEvery > 0 && j.trace != nil {
		pr.AddSink(telemetry.NewTracer(uint64(m.opt.SpanSampleEvery), j.trace.exporter()))
	}

	systems := make([]*system.System, len(machines))
	for i, mc := range machines {
		cfg := mc.cfg
		var p *probe.Probe
		if i == 0 {
			p = pr
		}
		if timed {
			eng, err := cycles.New(params, p)
			if err != nil {
				return nil, err
			}
			cfg.Cycles = eng
		}
		cfg.Probe = p
		cfg.ProbeEphemeral = p != nil
		sys, err := system.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mc.label, err)
		}
		if err := wl.SetupSharedMappings(sys.MMU()); err != nil {
			return nil, err
		}
		systems[i] = sys
	}

	gen, err := tracegen.New(wl)
	if err != nil {
		return nil, err
	}
	var cursor uint64
	if ck, ok, err := m.loadCheckpoint(j, machines, wl, timed, params, systems, windows); err != nil {
		return nil, err
	} else if ok {
		cursor = ck
		if err := checkpoint.ResumeReader(gen, cursor); err != nil {
			return nil, err
		}
		j.mu.Lock()
		j.resumed = true
		j.mu.Unlock()
		m.log.Info("job resumed", "job", j.id, "records", cursor, "refs", systems[0].Refs())
	}
	// persist writes the series closed so far, then the container, so
	// a container is never ahead of the persisted series.
	persist := func() error {
		rec.flush()
		if err := m.saveCheckpoint(j, machines, wl, timed, params, systems, windows, cursor); err != nil {
			return err
		}
		if j.trace != nil {
			j.trace.noteCheckpoint()
		}
		return nil
	}

	buf := make([]trace.Ref, 4096)
	lastCk := cursor
	for {
		if err := ctx.Err(); err != nil {
			cause := context.Cause(ctx)
			if errors.Is(cause, errShutdown) {
				if err := persist(); err != nil {
					return nil, fmt.Errorf("parking checkpoint: %w", err)
				}
			}
			return nil, cause
		}
		n, rerr := trace.FillBatch(gen, buf[:cap(buf)])
		if n > 0 {
			for i, sys := range systems {
				if err := sys.ApplyBatch(buf[:n]); err != nil {
					return nil, fmt.Errorf("%s: %w", machines[i].label, err)
				}
			}
			cursor += uint64(n)
			j.setProgress(cursor, systems[0].Refs())
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			return nil, rerr
		}
		if m.opt.CheckpointEvery > 0 && cursor-lastCk >= uint64(m.opt.CheckpointEvery) {
			if err := persist(); err != nil {
				return nil, fmt.Errorf("periodic checkpoint: %w", err)
			}
			lastCk = cursor
		}
	}
	for _, sys := range systems {
		sys.Drain()
	}
	if err := pr.Close(); err != nil {
		return nil, err
	}
	rec.flush()
	if rec.err != nil {
		m.log.Warn("timeseries write failed", "job", j.id, "err", rec.err)
	}

	results := make([]report.Results, len(systems))
	for i, sys := range systems {
		res := report.FromSystem(sys, sys.Config())
		res.Probe = nil // ephemeral progress probe: never part of the report
		results[i] = res
	}
	if j.cfg.Kind == KindRun {
		var out bytes.Buffer
		if err := results[0].WriteJSON(&out); err != nil {
			return nil, err
		}
		return out.Bytes(), nil
	}
	sr := SweepReport{Preset: j.cfg.Preset, Scale: j.cfg.scale()}
	for i := range results {
		sr.Configs = append(sr.Configs, SweepConfigReport{Label: machines[i].label, Results: results[i]})
	}
	return marshalReport(sr)
}

// runAutotune executes a design-space search job. The search itself is not
// interruptible, so cancellation and shutdown are honored at its
// boundaries: a shutdown mid-search discards the result and the job re-runs
// from scratch on resume — Search is deterministic, so the eventual report
// is byte-identical anyway.
func (m *Manager) runAutotune(ctx context.Context, j *job) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	spec := j.cfg.Autotune
	if spec == nil {
		spec = &AutotuneSpec{}
	}
	o := autotune.Options{
		Workload:   j.cfg.workload(),
		ProbeRefs:  spec.ProbeRefs,
		Shards:     spec.Shards,
		Warmup:     spec.Warmup,
		Margin:     spec.Margin,
		Exhaustive: spec.Exhaustive,
	}
	if spec.Grammar != nil {
		o.Grammar = *spec.Grammar
	} else {
		o.Grammar = autotune.PaperGrammar()
	}
	res, err := autotune.Search(o)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	j.setProgress(j.total, j.total)
	return marshalReport(res)
}

// marshalReport renders a report document the way report.Results.WriteJSON
// does: indented, trailing newline, deterministic.
func marshalReport(v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// signature fingerprints machine i of a job the way cmd/vrsim fingerprints
// a run: workload identity plus every state-shaping machine parameter, with
// the attached observers stripped.
func signature(wl tracegen.Config, mc machine, idx int, timed bool, p cycles.Params) string {
	s := mc.cfg
	s.Probe, s.Cycles, s.Audit = nil, nil, nil
	s.ProbeEphemeral = false
	return fmt.Sprintf("%s|machine[%d]=%+v|timed=%v|cycles=%+v", wl.Signature(), idx, s, timed, p)
}

// Checkpoint container: every system of a job checkpointed at one shared
// trace cursor, plus the progress window open at that cursor, so the
// resumed lifetime finishes the window rather than restarting it from
// zero. Writing is atomic (temp + rename), so a daemon killed
// mid-checkpoint leaves the previous container intact.
//
//	magic "VRJOBS2\n", then uvarints: cursor, then the open window's JSON
//	length (0: none open) + bytes, count, then per system uvarint length +
//	checkpoint.Checkpoint.Encode bytes.
var ckMagic = []byte("VRJOBS2\n")

func (m *Manager) saveCheckpoint(j *job, machines []machine, wl tracegen.Config, timed bool,
	p cycles.Params, systems []*system.System, windows *probe.Windows, cursor uint64) error {
	var out bytes.Buffer
	out.Write(ckMagic)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { out.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	putBlob := func(b []byte) { put(uint64(len(b))); out.Write(b) }
	put(cursor)
	var pending []byte
	if w, open := windows.Pending(); open {
		var err error
		if pending, err = json.Marshal(w); err != nil {
			return err
		}
	}
	putBlob(pending)
	put(uint64(len(systems)))
	for i, sys := range systems {
		ck, err := checkpoint.Capture(sys, signature(wl, machines[i], i, timed, p), cursor)
		if err != nil {
			return err
		}
		putBlob(ck.Encode())
	}
	return writeFileAtomic(m.checkpointPath(j.id), out.Bytes())
}

// loadCheckpoint restores every system from the job's checkpoint container,
// if one exists, and resumes the window collector at machine 0's restored
// reference count with the window the container holds open, returning the
// shared cursor.
func (m *Manager) loadCheckpoint(j *job, machines []machine, wl tracegen.Config, timed bool,
	p cycles.Params, systems []*system.System, windows *probe.Windows) (uint64, bool, error) {
	data, err := os.ReadFile(m.checkpointPath(j.id))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if !bytes.HasPrefix(data, ckMagic) {
		return 0, false, fmt.Errorf("jobs: %s: bad checkpoint magic (want %q)", m.checkpointPath(j.id), ckMagic)
	}
	rd := bytes.NewReader(data[len(ckMagic):])
	cursor, err := binary.ReadUvarint(rd)
	if err != nil {
		return 0, false, fmt.Errorf("jobs: checkpoint cursor: %w", err)
	}
	win, err := readBlob(rd)
	if err != nil {
		return 0, false, fmt.Errorf("jobs: checkpoint window: %w", err)
	}
	var pending probe.WindowMetrics
	if len(win) > 0 {
		if err := json.Unmarshal(win, &pending); err != nil {
			return 0, false, fmt.Errorf("jobs: checkpoint window: %w", err)
		}
	}
	count, err := binary.ReadUvarint(rd)
	if err != nil {
		return 0, false, fmt.Errorf("jobs: checkpoint count: %w", err)
	}
	if count != uint64(len(systems)) {
		return 0, false, fmt.Errorf("jobs: checkpoint has %d systems, job has %d", count, len(systems))
	}
	for i, sys := range systems {
		enc, err := readBlob(rd)
		if err != nil {
			return 0, false, fmt.Errorf("jobs: checkpoint entry %d: %w", i, err)
		}
		ck, err := checkpoint.Decode(enc)
		if err != nil {
			return 0, false, fmt.Errorf("jobs: checkpoint entry %d: %w", i, err)
		}
		if err := checkpoint.Restore(sys, ck, signature(wl, machines[i], i, timed, p)); err != nil {
			return 0, false, err
		}
	}
	windows.Resume(systems[0].Refs(), pending, len(win) > 0)
	return cursor, true, nil
}

// readBlob reads one uvarint-length-prefixed byte string of a container.
func readBlob(rd *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	if n > uint64(rd.Len()) {
		return nil, io.ErrUnexpectedEOF
	}
	b := make([]byte, n)
	_, err = io.ReadFull(rd, b)
	return b, err
}
