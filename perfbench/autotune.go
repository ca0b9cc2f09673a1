package main

import (
	"fmt"
	"time"

	"repro/internal/autotune"
	"repro/internal/cycles"
	"repro/internal/tracegen"
)

// autotuneCost is the simulated work of one search with default options,
// derived from the search's documented windowing: every candidate simulates
// Shards probe windows, each after a warm-up clamped to the window's start,
// and every survivor the whole trace.
func autotuneCost(wl tracegen.Config, candidates, survivors int) (probe, exact uint64) {
	total := uint64(wl.TotalRefs)
	const shards, warmup = 4, 4096 // the autotune.Options defaults
	win := max(total/8/shards, 1)
	var perCand uint64
	for s := uint64(0); s < shards; s++ {
		start := s * total / shards
		end := min(start+win, (s+1)*total/shards)
		perCand += min(warmup, start) + end - start
	}
	return uint64(candidates) * perCand, uint64(survivors) * total
}

// autotuneSetups is how many times an autotune pass repeats its set-up;
// fewer than setupReps, as one costs about a second.
const autotuneSetups = 3

// autotunePass expands the paper grammar and builds every candidate's timed
// machine once with the workload's shared mappings (the set-up: the
// per-candidate construction every search window repeats), then runs one
// search (the timed section, one job) and checks it.
func (b *bench) autotunePass(wl tracegen.Config, t *tracer, pass int, ps *passStats, d *digests) (*autotune.Result, error) {
	g := autotune.PaperGrammar()
	cands, err := setUp(ps, autotuneSetups, func() ([]autotune.Candidate, error) {
		cands, err := g.Expand(wl.CPUs, 4096)
		if err != nil {
			return nil, err
		}
		for _, c := range cands {
			eng, err := cycles.New(cycles.DefaultParams(), nil)
			if err != nil {
				return nil, err
			}
			cfg := c.Config
			cfg.Cycles = eng
			if _, err := newMachine(cfg, wl); err != nil {
				return nil, fmt.Errorf("%s: %w", c.Label, err)
			}
		}
		_, err = tracegen.New(wl)
		return cands, err
	})
	if err != nil {
		return nil, err
	}

	t1 := time.Now()
	id := t.begin(pass, 0, spanSearch)
	res, runErr := autotune.Search(autotune.Options{Grammar: g, Workload: wl, Parallel: b.o.workers})
	t.end(id)
	wall := time.Since(t1)
	ps.wall = append(ps.wall, wall)
	ps.jobs = append(ps.jobs, wall)

	b.attempted++
	if runErr != nil {
		b.fail("autotune: %v", runErr)
		ps.refs = append(ps.refs, 0)
		return nil, nil
	}
	probe, exact := autotuneCost(wl, res.Candidates, res.Survivors)
	ps.refs = append(ps.refs, probe+exact)
	// MarginSound is a sufficient condition for pruning to have kept the
	// frontier, not a necessary one, so a seed may legitimately clear it;
	// it is printed, not failed.
	switch {
	case res.Candidates != len(cands) || res.Pruned+res.Survivors != res.Candidates:
		b.fail("autotune: %d candidates, %d pruned, %d survivors (the grammar has %d)",
			res.Candidates, res.Pruned, res.Survivors, len(cands))
	case len(res.Frontier) == 0:
		b.fail("autotune: empty frontier")
	default:
		dg, err := digestOf(res)
		if err != nil {
			b.fail("autotune: digest: %v", err)
		} else if why := b.checkDigest(d, "autotune/search", dg); why != "" {
			b.fail("autotune: %s", why)
		}
	}
	return res, nil
}

// autotuneHalf runs searches for one half's budget and returns the last
// successful search's result.
func (b *bench) autotuneHalf(wl tracegen.Config, t *tracer, d *digests) (*passStats, *autotune.Result, error) {
	ps := &passStats{}
	var last *autotune.Result
	err := repeat(b.halfBudget(), func(i int) error {
		res, err := b.autotunePass(wl, t, i, ps, d)
		if res != nil {
			last = res
		}
		return err
	})
	return ps, last, err
}

func (b *bench) autotune() error {
	wl := b.preset(tracegen.PopsLike(), b.scale.autotune)
	b.logf("# autotune: %s x%g, %d refs, paper grammar, parallel %d", wl.Name, b.scale.autotune, wl.TotalRefs, b.o.workers)
	var d digests
	untraced, res, err := b.autotuneHalf(wl, nil, &d)
	if err != nil {
		return err
	}
	b.recordEndToEnd(untraced, millis(untraced.jobs))
	if b.o.trace {
		b.zeroLayers()
		t := b.newTracer()
		traced, tres, err := b.autotuneHalf(wl, t, &d)
		if err != nil {
			return err
		}
		b.recordOverhead(untraced, traced)
		if tres != nil {
			res = tres
			b.autotuneLayers(t.snapshot(), wl, res)
		}
	}
	if res != nil {
		b.logf("autotune: %d candidates, %d pruned, %d survivors, frontier of %d points, margin sound %v",
			res.Candidates, res.Pruned, res.Survivors, len(res.Frontier), res.MarginSound)
		if fd, err := digestOf(res.Frontier); err == nil {
			b.logf("digest %-36s %s", "autotune/frontier", fd)
		}
	}
	b.printDigests(&d)
	return nil
}

// autotuneLayers records the search's host time per simulated reference
// (median over the traced half's searches) and its exact counts.
func (b *bench) autotuneLayers(spans []span, wl tracegen.Config, res *autotune.Result) {
	var searchNS []float64
	for _, s := range spans {
		if s.Name == spanSearch {
			searchNS = append(searchNS, float64(s.dur()))
		}
	}
	probe, exact := autotuneCost(wl, res.Candidates, res.Survivors)
	b.set("autotune.ns_per_sim_ref", median(searchNS)/float64(probe+exact))
	b.set("autotune.candidates", float64(res.Candidates))
	b.set("autotune.pruned", float64(res.Pruned))
	b.set("autotune.survivors", float64(res.Survivors))
	b.set("autotune.probe_refs", float64(probe))
	b.set("autotune.exact_refs", float64(exact))
}
