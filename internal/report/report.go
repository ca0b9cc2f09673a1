// Package report renders simulation results in a machine-readable form so
// downstream tooling (plotting scripts, regression tracking) can consume
// runs of cmd/vrsim without scraping its text output.
package report

import (
	"encoding/json"
	"io"

	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/monitor"
	"repro/internal/probe"
	"repro/internal/system"
	"repro/internal/telemetry"
)

// Machine describes the configuration a result was measured on.
type Machine struct {
	Organization string `json:"organization"`
	CPUs         int    `json:"cpus"`
	L1           string `json:"l1"`
	L2           string `json:"l2"`
	Split        bool   `json:"split,omitempty"`
	Protocol     string `json:"protocol"`
	WriteThrough bool   `json:"writeThrough,omitempty"`
	PIDTagged    bool   `json:"pidTagged,omitempty"`
}

// HitRatios is one level's hit ratios by reference kind.
type HitRatios struct {
	Overall   float64 `json:"overall"`
	DataRead  float64 `json:"dataRead"`
	DataWrite float64 `json:"dataWrite"`
	Instr     float64 `json:"instr"`
}

// BusStats summarizes bus traffic.
type BusStats struct {
	ReadMiss    uint64 `json:"readMiss"`
	ReadModWr   uint64 `json:"readModifiedWrite"`
	Invalidate  uint64 `json:"invalidate"`
	Update      uint64 `json:"update"`
	CacheSupply uint64 `json:"cacheSupplied"`
}

// CPUStats is one processor's counter set.
type CPUStats struct {
	CPU               int    `json:"cpu"`
	CtxSwitches       uint64 `json:"ctxSwitches"`
	WriteBacks        uint64 `json:"writeBacks"`
	SwappedWriteBacks uint64 `json:"swappedWriteBacks"`
	Synonyms          uint64 `json:"synonyms"`
	InclusionInvals   uint64 `json:"inclusionInvalidations"`
	BufferStalls      uint64 `json:"bufferStalls"`
	TLBMisses         uint64 `json:"tlbMisses"`
	CoherenceToL1     uint64 `json:"coherenceMessagesToL1"`
	VictimHits        uint64 `json:"victimHits,omitempty"`
	VictimInserts     uint64 `json:"victimInserts,omitempty"`
	RLTEvictions      uint64 `json:"rltEvictions,omitempty"`
}

// CPUTiming is one processor's measured timing.
type CPUTiming struct {
	CPU  int     `json:"cpu"`
	Tacc float64 `json:"tacc"`
	cycles.AgentTiming
}

// TimingReport carries the cycle engine's measurements when one was
// attached to the run.
type TimingReport struct {
	Params  cycles.Params `json:"params"`
	Refs    uint64        `json:"refs"`
	Tacc    float64       `json:"tacc"` // machine average, cycles/reference
	BusBusy uint64        `json:"busBusyCycles"`
	BusTxns uint64        `json:"busTimedTxns"`
	BusWait uint64        `json:"busWaitCycles"`
	PerCPU  []CPUTiming   `json:"perCPU"`
}

// ProbeReport carries the observability layer's output when a probe was
// attached to the run: per-mechanism event totals keyed by event name, and
// the windowed metrics when a window collector ran.
type ProbeReport struct {
	Events  map[string]uint64     `json:"events"`
	Windows []probe.WindowMetrics `json:"windows,omitempty"`
}

// AuditReport carries the invariant auditor's tally when one was attached:
// how many audits ran, how many violations they found, and the retained
// findings (capped — Violations keeps counting past the cap).
type AuditReport struct {
	Every      uint64            `json:"every,omitempty"` // audit period, references
	Audits     uint64            `json:"audits"`
	Violations uint64            `json:"violations"`
	Findings   []audit.Violation `json:"findings,omitempty"`
}

// LatencySummary is one latency distribution's headline numbers, in cycles.
type LatencySummary struct {
	Kind  string  `json:"kind"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   uint64  `json:"max"`
}

// MonitorReport carries the live-monitoring layer's output: machine-wide
// latency distribution summaries (fed by the cycle engine) and per-cache
// occupancy at the end of the run.
type MonitorReport struct {
	Latency   []LatencySummary           `json:"latency,omitempty"`
	Occupancy []monitor.OccupancySummary `json:"occupancy,omitempty"`
}

// Results is a complete run summary.
type Results struct {
	Build       *telemetry.BuildInfo         `json:"build,omitempty"`
	Machine     Machine                      `json:"machine"`
	Refs        uint64                       `json:"references"`
	L1          HitRatios                    `json:"l1"`
	L2          HitRatios                    `json:"l2"`
	Bus         BusStats                     `json:"bus"`
	PerCPU      []CPUStats                   `json:"perCPU"`
	Timing      *TimingReport                `json:"timing,omitempty"`
	Probe       *ProbeReport                 `json:"probe,omitempty"`
	Audit       *AuditReport                 `json:"audit,omitempty"`
	Monitor     *MonitorReport               `json:"monitor,omitempty"`
	Attribution *telemetry.AttributionReport `json:"attribution,omitempty"`
}

// AddWindows attaches windowed metrics to the probe section (creating it
// when the run had counts-only probing).
func (r *Results) AddWindows(ws []probe.WindowMetrics) {
	if len(ws) == 0 {
		return
	}
	if r.Probe == nil {
		r.Probe = &ProbeReport{}
	}
	r.Probe.Windows = ws
}

// SummarizeLatencies reduces per-CPU latency histograms to machine-wide
// summaries, one per kind that recorded any sample, in kind order.
func SummarizeLatencies(lat *monitor.Latencies) []LatencySummary {
	if lat == nil {
		return nil
	}
	var out []LatencySummary
	for k := monitor.LatencyKind(0); k < monitor.NumLatencyKinds; k++ {
		h := lat.Aggregate(k)
		if h.Count() == 0 {
			continue
		}
		out = append(out, LatencySummary{
			Kind:  k.String(),
			Count: h.Count(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
			Max:   h.Max(),
		})
	}
	return out
}

// FromSystem gathers a Results from a finished run.
func FromSystem(sys *system.System, cfg system.Config) Results {
	agg := sys.Aggregate()
	bs := sys.Bus().Stats()
	build := telemetry.Build()
	r := Results{
		Build: &build,
		Machine: Machine{
			Organization: cfg.Organization.String(),
			CPUs:         sys.CPUs(),
			L1:           cfg.L1.String(),
			L2:           cfg.L2.String(),
			Split:        cfg.Split,
			Protocol:     cfg.Protocol.String(),
			WriteThrough: cfg.L1WriteThrough,
			PIDTagged:    cfg.PIDTagged,
		},
		Refs: sys.Refs(),
		L1: HitRatios{
			Overall: agg.L1.Overall, DataRead: agg.L1.DataRead,
			DataWrite: agg.L1.DataWrite, Instr: agg.L1.Instr,
		},
		L2: HitRatios{
			Overall: agg.L2.Overall, DataRead: agg.L2.DataRead,
			DataWrite: agg.L2.DataWrite, Instr: agg.L2.Instr,
		},
		Bus: BusStats{
			ReadMiss:    bs.Count(bus.Read),
			ReadModWr:   bs.Count(bus.ReadMod),
			Invalidate:  bs.Count(bus.Invalidate),
			Update:      bs.Count(bus.Update),
			CacheSupply: bs.Supplies,
		},
	}
	if p := sys.Probe(); p != nil {
		r.Probe = &ProbeReport{Events: p.Counts().Map()}
	}
	if eng := sys.Cycles(); eng != nil {
		tr := &TimingReport{
			Params:  eng.Params(),
			Refs:    eng.TotalRefs(),
			Tacc:    eng.Tacc(),
			BusBusy: eng.BusBusy(),
			BusTxns: eng.BusTxns(),
			BusWait: eng.BusWait(),
		}
		for cpu := 0; cpu < sys.CPUs(); cpu++ {
			at := eng.Agent(cpu)
			tr.PerCPU = append(tr.PerCPU, CPUTiming{CPU: cpu, Tacc: at.Tacc(), AgentTiming: at})
		}
		r.Timing = tr
	}
	if aud := sys.Auditor(); aud != nil {
		r.Audit = &AuditReport{
			Every:      aud.Every(),
			Audits:     aud.Audits(),
			Violations: aud.Total(),
			Findings:   aud.Violations(),
		}
	}
	if eng := sys.Cycles(); eng != nil && eng.Latencies() != nil {
		r.Monitor = &MonitorReport{
			Latency:   SummarizeLatencies(eng.Latencies()),
			Occupancy: monitor.Occupancy(sys.AuditSnapshot()),
		}
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		st := sys.Stats(cpu)
		r.PerCPU = append(r.PerCPU, CPUStats{
			CPU:               cpu,
			CtxSwitches:       st.CtxSwitches,
			WriteBacks:        st.WriteBacks,
			SwappedWriteBacks: st.SwappedWriteBacks,
			Synonyms:          st.SynonymTotal() - st.Synonyms[core.SynNone],
			InclusionInvals:   st.InclusionInvals,
			BufferStalls:      st.BufferStalls,
			TLBMisses:         st.TLB.Misses,
			CoherenceToL1:     st.Coherence.Total(),
			VictimHits:        st.VictimHits,
			VictimInserts:     st.VictimInserts,
			RLTEvictions:      st.RLTEvictions,
		})
	}
	return r
}

// WriteJSON renders the results as indented JSON.
func (r Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseJSON reads a Results back (round-trip support for tooling).
func ParseJSON(r io.Reader) (Results, error) {
	var out Results
	err := json.NewDecoder(r).Decode(&out)
	return out, err
}
