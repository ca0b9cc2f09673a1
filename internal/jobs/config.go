// Package jobs turns the simulator into a long-running service: simulation,
// sweep and autotune jobs are submitted as JSON over HTTP, multiplexed onto
// a bounded worker pool with per-job cancellation and deadlines, observed
// through the probe layer's windowed metrics, periodically checkpointed
// through internal/checkpoint so a daemon restart resumes every in-flight
// job, and reported as the same JSON documents the command-line tools emit.
//
// The package is split along the lifecycle:
//
//   - config.go — the job-submission decoder and validator (the fuzz
//     surface: every byte that crosses the HTTP boundary goes through
//     DecodeConfig)
//   - manager.go — the worker pool, job registry and on-disk state
//   - run.go — the executors: the checkpointable simulation loop shared by
//     run and sweep jobs, and the autotune wrapper
//   - server.go — the HTTP API (submit, status, report, cancel, SSE
//     progress, Prometheus fleet metrics)
//
// Reports are byte-identical across daemon restarts: run and sweep jobs
// resume from machine checkpoints (internal/checkpoint's guarantee), and
// autotune jobs re-run their deterministic search from the start. The probe
// attached for progress streaming is excluded from the report precisely so
// that this equivalence holds (its window cursors are not checkpointed; see
// system.Config.ProbeEphemeral).
package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/autotune"
	"repro/internal/cache"
	"repro/internal/cycles"
	"repro/internal/system"
	"repro/internal/tracegen"
)

// Kinds of job the server runs.
const (
	KindRun      = "run"      // one machine, one report.Results document
	KindSweep    = "sweep"    // many machines over one trace, one document per machine
	KindAutotune = "autotune" // a design-space search, one autotune.Result document
)

// Error is a structured validation error: Field names the offending JSON
// path ("machine.l1Size") when one is identifiable, and Msg says what is
// wrong. It marshals to the {"error": ..., "field": ...} document the HTTP
// API returns with a 400.
type Error struct {
	Msg   string `json:"error"`
	Field string `json:"field,omitempty"`
}

func (e *Error) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("%s: %s", e.Field, e.Msg)
	}
	return e.Msg
}

func errf(field, format string, args ...any) *Error {
	return &Error{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Config is one submitted job. Kind selects which of the kind-specific
// sections must be present; the workload is always a deterministic
// tracegen preset so checkpointed jobs can regenerate their trace.
type Config struct {
	Kind   string  `json:"kind"`
	Preset string  `json:"preset"`          // pops | thor | abaqus
	Scale  float64 `json:"scale,omitempty"` // trace length factor, default 1

	// Deadline bounds the job's wall-clock run time (Go duration string,
	// e.g. "90s"); a job past its deadline fails. Empty means unbounded.
	Deadline string `json:"deadline,omitempty"`

	// Timed attaches the cycle engine; Params overrides its latencies
	// (default cycles.DefaultParams with contention enabled).
	Timed  bool       `json:"timed,omitempty"`
	Params *TimedSpec `json:"params,omitempty"`

	Machine  *MachineSpec  `json:"machine,omitempty"`  // run: nil selects the paper default
	Machines []MachineSpec `json:"machines,omitempty"` // sweep: one entry per configuration
	Autotune *AutotuneSpec `json:"autotune,omitempty"` // autotune: nil selects the paper grammar
}

// MachineSpec is one machine configuration in submission form. Zero fields
// take the paper defaults (16K direct-mapped L1 with 16-byte blocks, 256K
// direct-mapped L2 with 32-byte blocks, 64x2 TLB, depth-1 write buffer,
// LRU). The CPU count and page size always come from the preset: the trace
// stream fixes both.
type MachineSpec struct {
	Label string `json:"label,omitempty"`
	Org   string `json:"org,omitempty"` // a vrsim -org name (system.ParseOrganization)

	L1Size  uint64 `json:"l1Size,omitempty"`
	L1Assoc int    `json:"l1Assoc,omitempty"`
	L1Block uint64 `json:"l1Block,omitempty"`
	Split   bool   `json:"split,omitempty"`

	L2Size  uint64 `json:"l2Size,omitempty"`
	L2Assoc int    `json:"l2Assoc,omitempty"`
	L2Block uint64 `json:"l2Block,omitempty"`

	TLBEntries    int    `json:"tlbEntries,omitempty"`
	TLBAssoc      int    `json:"tlbAssoc,omitempty"`
	WriteBufDepth int    `json:"writeBufDepth,omitempty"`
	Policy        string `json:"policy,omitempty"` // cache.ParsePolicy name

	// Victim inserts a victim cache of that many blocks (any organization);
	// 0 means none. RLTEntries sizes the "rlt" organization's reverse-lookup
	// table (0 selects the system default) and is rejected elsewhere.
	Victim     int `json:"victim,omitempty"`
	RLTEntries int `json:"rltEntries,omitempty"`
}

// TimedSpec overrides the cycle engine's latency parameters.
type TimedSpec struct {
	T1         uint64 `json:"t1,omitempty"`
	T2         uint64 `json:"t2,omitempty"`
	TM         uint64 `json:"tm,omitempty"`
	TLBPenalty uint64 `json:"tlbPenalty,omitempty"`
	CtxCost    uint64 `json:"ctxCost,omitempty"`
	BusMemOcc  uint64 `json:"busMemOcc,omitempty"`
	BusCtrlOcc uint64 `json:"busCtrlOcc,omitempty"`
	Contention *bool  `json:"contention,omitempty"`
}

// AutotuneSpec configures a design-space search job (see
// internal/autotune); the zero value searches the paper grammar with the
// searcher's defaults.
type AutotuneSpec struct {
	Grammar   *autotune.Grammar `json:"grammar,omitempty"`
	ProbeRefs uint64            `json:"probeRefs,omitempty"`
	Shards    int               `json:"shards,omitempty"`
	Warmup    uint64            `json:"warmup,omitempty"`
	// Chunk is ignored. It once grouped the candidates that shared a trace
	// pass, which a search no longer has; it is still decoded, in its old
	// place in the canonical form, so that documents naming it, parked jobs
	// among them, stay valid and keep their bytes.
	Chunk      int     `json:"chunk,omitempty"`
	Margin     float64 `json:"margin,omitempty"`
	Exhaustive bool    `json:"exhaustive,omitempty"`
}

// Service-side resource bounds. A public submission endpoint must not let a
// JSON document allocate an unbounded machine or trace, so the validator
// rejects anything past these before a single byte of simulator state is
// built.
const (
	maxScale        = 16      // trace length factor
	maxRefs         = 1 << 30 // scaled trace references
	maxAutotuneRefs = 1 << 24 // an autotune job's, held in memory (16 bytes each)
	maxCacheSize    = 1 << 28 // bytes per level
	maxBlock        = 1 << 12 // bytes
	maxAssoc        = 1 << 6
	maxTLBEntries   = 1 << 16
	maxWriteBuf     = 1 << 10
	maxSweepConfigs = 64
	maxVictim       = 1 << 10 // victim-cache blocks
	maxRLT          = 1 << 16 // reverse-lookup-table entries
	maxGrammarAxis  = 32      // values per grammar axis
	maxCandidates   = 8192    // expanded grammar size
	maxLatency      = 1 << 20 // cycles, per timing parameter
	maxDeadline     = 24 * time.Hour
	maxLabelLen     = 200
)

// DecodeConfig parses and validates one job submission. It is strict —
// unknown fields, trailing data and out-of-bounds values are all rejected —
// and the error is always a *jobs.Error suitable for the HTTP response.
// FuzzJobConfigDecode holds it to: never panic, and accept a document only
// if the document round-trips through Canonical unchanged in meaning.
func DecodeConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, &Error{Msg: fmt.Sprintf("parse: %v", err)}
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || len(trailing) > 0 {
		return nil, &Error{Msg: "trailing data after the job document"}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Canonical renders the validated config in its normalized JSON form, the
// bytes the manager persists and fingerprints.
func (c *Config) Canonical() []byte {
	out, err := json.Marshal(c)
	if err != nil { // all field types are marshalable; nothing can fail
		panic(err)
	}
	return out
}

// Validate checks the document against the schema and the service bounds,
// and each machine against system.Config.Validate. It builds no machine:
// past the bounds, the only state allocated is the bounded write buffer
// and reverse-lookup table whose constructors Validate asks about their
// shapes.
func (c *Config) Validate() error {
	switch c.Kind {
	case KindRun, KindSweep, KindAutotune:
	case "":
		return errf("kind", "required (run, sweep, autotune)")
	default:
		return errf("kind", "unknown kind %q (run, sweep, autotune)", c.Kind)
	}
	wl, err := tracegen.PresetByName(c.Preset)
	if err != nil {
		return errf("preset", "%v", err)
	}
	if c.Scale != 0 {
		if math.IsNaN(c.Scale) || c.Scale <= 0 || c.Scale > maxScale {
			return errf("scale", "must be in (0, %d]", maxScale)
		}
	}
	if refs := float64(wl.TotalRefs) * c.scale(); refs > maxRefs {
		return errf("scale", "%.0f scaled references exceed the %d limit", refs, int64(maxRefs))
	}
	if c.Deadline != "" {
		d, err := time.ParseDuration(c.Deadline)
		if err != nil {
			return errf("deadline", "%v", err)
		}
		if d <= 0 || d > maxDeadline {
			return errf("deadline", "must be in (0, %v]", maxDeadline)
		}
	}
	if c.Params != nil {
		if !c.Timed {
			return errf("params", "timing parameters require \"timed\": true")
		}
		if err := c.Params.validate(); err != nil {
			return err
		}
	}
	switch c.Kind {
	case KindRun:
		if len(c.Machines) > 0 {
			return errf("machines", "a run job takes a single \"machine\"")
		}
		if c.Autotune != nil {
			return errf("autotune", "not a field of run jobs")
		}
		if c.Machine != nil {
			if err := c.Machine.validate("machine", wl); err != nil {
				return err
			}
		}
	case KindSweep:
		if c.Machine != nil {
			return errf("machine", "a sweep job takes a \"machines\" list")
		}
		if c.Autotune != nil {
			return errf("autotune", "not a field of sweep jobs")
		}
		if len(c.Machines) == 0 {
			return errf("machines", "required: one entry per configuration")
		}
		if len(c.Machines) > maxSweepConfigs {
			return errf("machines", "%d configurations exceed the %d limit", len(c.Machines), maxSweepConfigs)
		}
		for i := range c.Machines {
			if err := c.Machines[i].validate(fmt.Sprintf("machines[%d]", i), wl); err != nil {
				return err
			}
		}
	case KindAutotune:
		if c.Machine != nil || len(c.Machines) > 0 {
			return errf("machine", "autotune jobs take a \"grammar\", not machines")
		}
		if c.Timed {
			return errf("timed", "autotune jobs are always timed; drop the flag")
		}
		if refs := float64(wl.TotalRefs) * c.scale(); refs > maxAutotuneRefs {
			return errf("scale", "%.0f scaled references exceed the %d an autotune job holds in memory",
				refs, int64(maxAutotuneRefs))
		}
		if c.Autotune != nil {
			if err := c.Autotune.validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Config) scale() float64 {
	if c.Scale == 0 {
		return 1
	}
	return c.Scale
}

// workload returns the job's (scaled) deterministic trace configuration.
func (c *Config) workload() tracegen.Config {
	wl, err := tracegen.PresetByName(c.Preset)
	if err != nil { // Validate already accepted the preset
		panic(err)
	}
	if s := c.scale(); s != 1 {
		wl = wl.Scaled(s)
	}
	return wl
}

// cycleParams resolves the job's timing parameters.
func (c *Config) cycleParams() cycles.Params {
	p := cycles.DefaultParams()
	p.Contention = true
	if s := c.Params; s != nil {
		if s.T1 != 0 {
			p.T1 = s.T1
		}
		if s.T2 != 0 {
			p.T2 = s.T2
		}
		if s.TM != 0 {
			p.TM = s.TM
		}
		p.TLBMissPenalty = s.TLBPenalty
		p.CtxSwitchCost = s.CtxCost
		p.BusMemOcc = s.BusMemOcc
		p.BusCtrlOcc = s.BusCtrlOcc
		if s.Contention != nil {
			p.Contention = *s.Contention
		}
	}
	return p
}

func (s *TimedSpec) validate() error {
	for _, v := range []struct {
		field string
		val   uint64
	}{
		{"params.t1", s.T1}, {"params.t2", s.T2}, {"params.tm", s.TM},
		{"params.tlbPenalty", s.TLBPenalty}, {"params.ctxCost", s.CtxCost},
		{"params.busMemOcc", s.BusMemOcc}, {"params.busCtrlOcc", s.BusCtrlOcc},
	} {
		if v.val > maxLatency {
			return errf(v.field, "%d exceeds the %d-cycle limit", v.val, int64(maxLatency))
		}
	}
	return nil
}

// validate applies the service bounds, then resolves the spec against the
// workload's CPU count and page size: the machine must be one
// system.Config.Validate accepts.
func (m *MachineSpec) validate(field string, wl tracegen.Config) error {
	if len(m.Label) > maxLabelLen {
		return errf(field+".label", "longer than %d bytes", maxLabelLen)
	}
	for _, v := range []struct {
		name string
		val  uint64
		max  uint64
	}{
		{"l1Size", m.L1Size, maxCacheSize}, {"l2Size", m.L2Size, maxCacheSize},
		{"l1Block", m.L1Block, maxBlock}, {"l2Block", m.L2Block, maxBlock},
		{"l1Assoc", uint64(max(m.L1Assoc, 0)), maxAssoc}, {"l2Assoc", uint64(max(m.L2Assoc, 0)), maxAssoc},
		{"tlbEntries", uint64(max(m.TLBEntries, 0)), maxTLBEntries},
		{"tlbAssoc", uint64(max(m.TLBAssoc, 0)), maxTLBEntries},
		{"writeBufDepth", uint64(max(m.WriteBufDepth, 0)), maxWriteBuf},
		{"victim", uint64(max(m.Victim, 0)), maxVictim},
		{"rltEntries", uint64(max(m.RLTEntries, 0)), maxRLT},
	} {
		if v.val > v.max {
			return errf(field+"."+v.name, "%d exceeds the %d limit", v.val, v.max)
		}
	}
	_, err := m.build(field, wl.CPUs, wl.PageSize)
	return err
}

// machine is one buildable configuration: the system.Config (without any
// attached observers) plus its deterministic label.
type machine struct {
	label string
	cfg   system.Config
}

// build resolves the spec to a system.Config: zero fields take the paper
// defaults, cpus and pageSize come from the workload, and
// system.Config.Validate decides legality. The default label is
// autotune.Label's.
func (m *MachineSpec) build(field string, cpus int, pageSize uint64) (machine, error) {
	orgName, polName := orDefault(m.Org, "vr"), orDefault(m.Policy, "lru")
	org, writeThrough, err := system.ParseOrganization(orgName)
	if err != nil {
		return machine{}, errf(field+".org", "%v", err)
	}
	pol, err := cache.ParsePolicy(polName)
	if err != nil {
		return machine{}, errf(field+".policy", "%v", err)
	}
	l1Block := orDefaultU(m.L1Block, 16)
	l2Block := orDefaultU(m.L2Block, 2*l1Block)
	if l2Block%l1Block != 0 {
		// Validate rejects this too; checking it here names the field.
		return machine{}, errf(field+".l2Block", "%d is not a multiple of the L1 block (%d)", l2Block, l1Block)
	}
	cfg := system.Config{
		CPUs:           cpus,
		Organization:   org,
		PageSize:       pageSize,
		L1:             cache.Geometry{Size: orDefaultU(m.L1Size, 16<<10), Block: l1Block, Assoc: orDefaultI(m.L1Assoc, 1)},
		Split:          m.Split,
		L2:             cache.Geometry{Size: orDefaultU(m.L2Size, 256<<10), Block: l2Block, Assoc: orDefaultI(m.L2Assoc, 1)},
		TLBEntries:     orDefaultI(m.TLBEntries, 64),
		TLBAssoc:       orDefaultI(m.TLBAssoc, 2),
		WriteBufDepth:  orDefaultI(m.WriteBufDepth, 1),
		L1Policy:       pol,
		L2Policy:       pol,
		L1WriteThrough: writeThrough,
		VictimEntries:  m.Victim,
		RLTEntries:     m.RLTEntries,
	}
	if err := cfg.Validate(); err != nil {
		return machine{}, errf(field, "%v", err)
	}
	label := m.Label
	if label == "" {
		label = autotune.Label(orgName, polName, cfg)
	}
	return machine{label: label, cfg: cfg}, nil
}

// machines expands the job's machine list: one entry for run jobs (the
// paper-default machine when none is given), the submitted list for sweeps.
func (c *Config) machines(wl tracegen.Config) ([]machine, error) {
	switch c.Kind {
	case KindRun:
		spec := c.Machine
		if spec == nil {
			spec = &MachineSpec{}
		}
		m, err := spec.build("machine", wl.CPUs, wl.PageSize)
		if err != nil {
			return nil, err
		}
		return []machine{m}, nil
	case KindSweep:
		out := make([]machine, 0, len(c.Machines))
		for i := range c.Machines {
			m, err := c.Machines[i].build(fmt.Sprintf("machines[%d]", i), wl.CPUs, wl.PageSize)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	}
	return nil, errf("kind", "%q jobs have no machine list", c.Kind)
}

func (a *AutotuneSpec) validate() error {
	if g := a.Grammar; g != nil {
		product := 1
		for _, axis := range []struct {
			name string
			n    int
		}{
			{"organizations", len(g.Organizations)}, {"l1Sizes", len(g.L1Sizes)},
			{"l1Assocs", len(g.L1Assocs)}, {"l2Sizes", len(g.L2Sizes)},
			{"l2Assocs", len(g.L2Assocs)}, {"blockRatios", len(g.BlockRatios)},
			{"writeBufDepths", len(g.WriteBufDepths)}, {"tlbEntries", len(g.TLBEntries)},
			{"tlbAssocs", len(g.TLBAssocs)}, {"policies", len(g.Policies)},
			{"victimEntries", len(g.VictimEntries)}, {"rltEntries", len(g.RLTEntries)},
		} {
			if axis.n > maxGrammarAxis {
				return errf("autotune.grammar."+axis.name, "%d values exceed the %d limit", axis.n, maxGrammarAxis)
			}
			if axis.n > 0 {
				product *= axis.n
			}
			if product > maxCandidates {
				return errf("autotune.grammar", "cross product exceeds %d candidates", maxCandidates)
			}
		}
		for _, s := range append(append([]uint64{g.L1Block}, g.L1Sizes...), g.L2Sizes...) {
			if s > maxCacheSize {
				return errf("autotune.grammar", "cache size %d exceeds the %d limit", s, int64(maxCacheSize))
			}
		}
		for _, v := range append(append([]int{}, g.L1Assocs...), g.L2Assocs...) {
			if v < 0 || v > maxAssoc {
				return errf("autotune.grammar", "associativity %d outside [0, %d]", v, maxAssoc)
			}
		}
		for _, v := range g.BlockRatios {
			if v < 0 || v > int(maxBlock) {
				return errf("autotune.grammar.blockRatios", "ratio %d outside [0, %d]", v, int64(maxBlock))
			}
		}
		for _, v := range append(append([]int{}, g.TLBEntries...), g.TLBAssocs...) {
			if v < 0 || v > maxTLBEntries {
				return errf("autotune.grammar", "TLB shape %d outside [0, %d]", v, maxTLBEntries)
			}
		}
		for _, v := range g.WriteBufDepths {
			if v < 0 || v > maxWriteBuf {
				return errf("autotune.grammar.writeBufDepths", "depth %d outside [0, %d]", v, maxWriteBuf)
			}
		}
		for _, v := range g.VictimEntries {
			if v < 0 || v > maxVictim {
				return errf("autotune.grammar.victimEntries", "%d outside [0, %d]", v, maxVictim)
			}
		}
		for _, v := range g.RLTEntries {
			if v < 0 || v > maxRLT {
				return errf("autotune.grammar.rltEntries", "%d outside [0, %d]", v, maxRLT)
			}
		}
	}
	if a.ProbeRefs > maxRefs {
		return errf("autotune.probeRefs", "%d exceeds the %d limit", a.ProbeRefs, int64(maxRefs))
	}
	if a.Shards < 0 || a.Shards > 64 {
		return errf("autotune.shards", "must be in [0, 64]")
	}
	if a.Warmup > maxRefs {
		return errf("autotune.warmup", "%d exceeds the %d limit", a.Warmup, int64(maxRefs))
	}
	if math.IsNaN(a.Margin) || math.IsInf(a.Margin, 0) {
		return errf("autotune.margin", "must be finite")
	}
	return nil
}

func orDefault(v, d string) string {
	if v == "" {
		return d
	}
	return v
}

func orDefaultU(v, d uint64) uint64 {
	if v == 0 {
		return d
	}
	return v
}

func orDefaultI(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}
