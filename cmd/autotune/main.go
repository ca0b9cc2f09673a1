// Command autotune searches the two-level hierarchy design space and
// prints the Pareto frontier of measured access time against SRAM cost.
//
// Usage:
//
//	autotune -preset pops -scale 0.01
//	autotune -grammar space.json -preset thor -json frontier.json
//	autotune -preset pops -scale 0.003 -check-exhaustive
//	autotune -preset pops -scale 0.01 -cpuprofile cpu.pb.gz
//
// Without -grammar the paper grammar (1700+ candidates) is searched; pass
// a JSON grammar file to define a custom space. -check-exhaustive re-runs
// the search without pruning and fails if the frontiers differ — the
// pruning-soundness check CI runs on a small grammar.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"

	"repro/internal/autotune"
	"repro/internal/tracegen"
)

func main() {
	var (
		grammarFile = flag.String("grammar", "", "JSON grammar file (default: the paper grammar)")
		preset      = flag.String("preset", "pops", "workload preset: thor | pops | abaqus")
		scale       = flag.Float64("scale", 0.01, "workload scale factor")
		probeRefs   = flag.Uint64("probe-refs", 0, "probe references per candidate (default: workload/8)")
		shards      = flag.Int("shards", 4, "probe windows per candidate")
		warmup      = flag.Uint64("warmup", 4096, "warm-up references per probe window")
		margin      = flag.Float64("margin", 0, "pruning margin in cycles (0 = auto, negative = none)")
		parallel    = flag.Int("parallel", 0, "worker goroutines (default GOMAXPROCS)")
		exhaustive  = flag.Bool("exhaustive", false, "measure every candidate exactly (no pruning)")
		checkExh    = flag.Bool("check-exhaustive", false, "also run exhaustively and fail if the frontiers differ")
		jsonOut     = flag.String("json", "", "write the result as JSON to this file ('-' = stdout)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if err := run(*grammarFile, *preset, *scale, *probeRefs, *shards, *warmup,
		*margin, *parallel, *exhaustive, *checkExh, *jsonOut,
		*cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "autotune:", err)
		os.Exit(1)
	}
}

func run(grammarFile, preset string, scale float64, probeRefs uint64,
	shards int, warmup uint64, margin float64, parallel int,
	exhaustive, checkExh bool, jsonOut, cpuProfile, memProfile string) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	g := autotune.PaperGrammar()
	if grammarFile != "" {
		data, err := os.ReadFile(grammarFile)
		if err != nil {
			return err
		}
		g = autotune.Grammar{}
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("parse %s: %w", grammarFile, err)
		}
	}
	wl, err := tracegen.PresetByName(preset)
	if err != nil {
		return err
	}
	wl = wl.Scaled(scale)

	o := autotune.Options{
		Grammar:    g,
		Workload:   wl,
		ProbeRefs:  probeRefs,
		Shards:     shards,
		Warmup:     warmup,
		Margin:     margin,
		Parallel:   parallel,
		Exhaustive: exhaustive,
	}
	res, err := autotune.Search(o)
	if err != nil {
		return err
	}
	res.WriteText(os.Stdout)

	if checkExh && !exhaustive {
		fmt.Println("\nre-running exhaustively to check pruning soundness...")
		oe := o
		oe.Exhaustive = true
		exact, err := autotune.Search(oe)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(stripProbe(res.Frontier), stripProbe(exact.Frontier)) {
			return fmt.Errorf("pruned frontier differs from exhaustive\npruned:     %+v\nexhaustive: %+v",
				res.Frontier, exact.Frontier)
		}
		fmt.Printf("pruning sound: pruned frontier matches exhaustive (%d candidates, %d pruned)\n",
			res.Candidates, res.Pruned)
	}

	if jsonOut != "" {
		w := os.Stdout
		if jsonOut != "-" {
			f, err := os.Create(jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := res.WriteJSON(w); err != nil {
			return err
		}
	}

	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// stripProbe drops the probe column (absent from exhaustive results) so
// frontiers compare on (label, bits, exact Tacc) alone.
func stripProbe(pts []autotune.Point) []autotune.Point {
	out := make([]autotune.Point, len(pts))
	for i, p := range pts {
		p.ProbeTacc = 0
		out[i] = p
	}
	return out
}
