package main

import (
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run, whatever the workload. A "job"
// is the unit a user of each workload waits for: one machine run (solo),
// one sweep (sweep), one search (autotune), one vrsimd job (service).
var endToEnd = []metricDef{
	{"refs_per_s", "refs/s"},     // simulated references per host second, summed over machines
	{"wall_s", "s"},              // median host seconds of one pass of the workload
	{"setup_s", "s"},             // median host seconds to build a pass's machines (or open the service)
	{"peak_rss_mb", "MB"},        // peak resident memory of the process
	{"job_latency_p50_ms", "ms"}, // median job latency
	{"job_latency_p90_ms", "ms"}, // 90th-percentile job latency
	{"jobs_per_s", "jobs/s"},     // completed jobs per host second
}

// soloMachineNames are the six solo machines, in run order.
var soloMachineNames = []string{"vr", "rr", "rrnoincl", "rlt", "vr_victim", "vr_timed"}

// simCounters are the simulated counts read from every machine, with the
// solo machines on which each is always zero (and therefore not printed).
var simCounters = []struct {
	name   string
	zeroOn []string
}{
	{"core.l1_misses", nil},
	{"core.l2_misses", nil},
	{"core.synonyms", []string{"rrnoincl"}},
	{"core.writebacks", nil},
	{"core.coherence_to_l1", nil},
	{"core.inclusion_invals", []string{"rrnoincl"}},
	{"tlb.misses", nil},
	{"writebuf.stalls", []string{"rrnoincl"}},
	{"bus.txns", nil},
	{"victim.hits", []string{"vr", "rr", "rrnoincl", "rlt", "vr_timed"}},
	{"rlt.evictions", []string{"vr", "rr", "rrnoincl", "vr_victim", "vr_timed"}},
}

// hostLayer are the per-layer host-time and exact metrics other than the
// simulated counts. Metrics of a layer a workload never calls read 0.
var hostLayer = []metricDef{
	{"tracegen.ns_per_ref", "ns"},
	{"system.ns_per_ref.vr", "ns"},
	{"system.ns_per_ref.rr", "ns"},
	{"system.ns_per_ref.rrnoincl", "ns"},
	{"system.ns_per_ref.rlt", "ns"},
	{"system.ns_per_ref.vr_victim", "ns"},
	{"system.ns_per_ref.vr_timed", "ns"},
	{"cycles.ns_per_ref", "ns"},
	{"victim.ns_per_ref", "ns"},
	{"rlt.ns_per_ref", "ns"},
	{"sweep.producer_idle_s", "s"},
	{"sweep.batches", "count"},
	{"autotune.ns_per_sim_ref", "ns"},
	{"autotune.candidates", "count"},
	{"autotune.pruned", "count"},
	{"autotune.survivors", "count"},
	{"autotune.probe_refs", "refs"},
	{"autotune.exact_refs", "refs"},
	{"jobs.submit_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.report_ms", "ms"},
	{"tsdb.query_ms", "ms"},
	{"jobs.run_ns_per_ref", "ns"},
	{"jobs.status_polls_per_job", "count"},
	{"jobs.state_bytes", "bytes"},
	{"checkpoint.captures", "count"},
	{"trace.overhead_wall_s", "s"},
	{"trace.overhead_jobs_per_s", "jobs/s"},
}

// timedCounters are read from the vr_timed machine's cycle engine.
var timedCounters = []metricDef{
	{"cycles.tacc.vr_timed", "cycles"},
	{"cycles.bus_wait_cycles.vr_timed", "cycles"},
}

// perLayer is the full per-layer catalogue, in print order: host and exact
// metrics, then the simulated counts per solo machine, then the same counts
// summed over the sweep's 18 machines.
func perLayer() []metricDef {
	out := append([]metricDef(nil), hostLayer...)
	for _, m := range soloMachineNames {
		for _, c := range simCounters {
			if !slices.Contains(c.zeroOn, m) {
				out = append(out, metricDef{c.name + "." + m, "count"})
			}
		}
	}
	out = append(out, timedCounters...)
	for _, c := range simCounters {
		out = append(out, metricDef{c.name + ".sweep", "count"})
	}
	return out
}

// units maps every catalogued metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		m[d.name] = d.unit
	}
	return m
}()

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds and millis convert durations for the metric tables.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; 0 when
// /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// setupReps is how many times solo and sweep passes repeat their set-up.
const setupReps = 5

// passStats is the end-to-end record of one untraced (or traced) half of a
// simulation workload: one entry per pass, and one latency per job.
type passStats struct {
	setup []time.Duration // per pass: building machines and generators
	wall  []time.Duration // per pass: the timed section
	refs  []uint64        // per pass: simulated references, summed over machines
	jobs  []time.Duration // per job
}

// recordEndToEnd records the pass-derived end-to-end metrics; the job
// latency quantiles are taken over lat, in milliseconds.
func (b *bench) recordEndToEnd(ps *passStats, lat []float64) {
	rates := make([]float64, len(ps.wall))
	for i, w := range ps.wall {
		rates[i] = float64(ps.refs[i]) / w.Seconds()
	}
	b.set("refs_per_s", median(rates))
	b.set("wall_s", median(seconds(ps.wall)))
	b.set("setup_s", median(seconds(ps.setup)))
	b.set("peak_rss_mb", peakRSSMB())
	b.set("job_latency_p50_ms", quantile(lat, 0.5))
	b.set("job_latency_p90_ms", quantile(lat, 0.9))
	b.set("jobs_per_s", ps.jobsPerSecond())
	b.logf("passes %d, jobs %d, set-ups %d, pass seconds %.4g", len(ps.wall), len(ps.jobs), len(ps.setup), seconds(ps.wall))
}

// recordOverhead records the tracing overhead: traced minus untraced
// wall_s and jobs_per_s.
func (b *bench) recordOverhead(untraced, traced *passStats) {
	b.set("trace.overhead_wall_s", median(seconds(traced.wall))-median(seconds(untraced.wall)))
	b.set("trace.overhead_jobs_per_s", traced.jobsPerSecond()-untraced.jobsPerSecond())
}

// jobsPerSecond is the median over passes of jobs completed per second.
func (ps *passStats) jobsPerSecond() float64 {
	perPass := float64(len(ps.jobs)) / float64(len(ps.wall))
	rates := make([]float64, len(ps.wall))
	for i, w := range ps.wall {
		rates[i] = perPass / w.Seconds()
	}
	return median(rates)
}
