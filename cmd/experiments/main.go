// Command experiments regenerates the paper's tables and figures from the
// simulator.
//
// Usage:
//
//	experiments -run all            # every artifact, full trace lengths
//	experiments -run table6,fig6    # selected artifacts
//	experiments -list               # list artifact ids
//	experiments -run table6 -scale 0.1   # 10% trace length for a quick look
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// selectExperiments resolves a -run argument ("all", a comma-separated id
// list, or prefix globs like "timed*") to the experiments to execute, in
// registry order per pattern and without duplicates.
func selectExperiments(run string) ([]experiments.Experiment, error) {
	if run == "all" {
		return experiments.All(), nil
	}
	var selected []experiments.Experiment
	seen := map[string]bool{}
	add := func(e experiments.Experiment) {
		if !seen[e.ID] {
			seen[e.ID] = true
			selected = append(selected, e)
		}
	}
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		if prefix, ok := strings.CutSuffix(id, "*"); ok {
			matched := false
			for _, e := range experiments.All() {
				if strings.HasPrefix(e.ID, prefix) {
					add(e)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("experiments: no experiment matches %q", id)
			}
			continue
		}
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		add(e)
	}
	return selected, nil
}

func main() {
	run := flag.String("run", "", "comma-separated experiment ids, or 'all'")
	scale := flag.Float64("scale", 1.0, "trace length scale factor (1.0 = paper-sized traces)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"experiments to run concurrently (they are independent; capped at NumCPU)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		fmt.Println("experiments", telemetry.Build())
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "experiments: -run or -list required (try -run all)")
		os.Exit(2)
	}

	selected, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if err := runAll(selected, *scale, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runAll executes the selected experiments, optionally concurrently (each
// experiment is self-contained: its own machine, MMU and workload). Output
// is buffered per experiment and printed in selection order.
func runAll(selected []experiments.Experiment, scale float64, parallel int) error {
	if parallel < 1 {
		parallel = 1
	}
	if parallel > runtime.NumCPU() {
		parallel = runtime.NumCPU()
	}
	type result struct {
		out  bytes.Buffer
		took time.Duration
		err  error
	}
	fmt.Println("build:", telemetry.Build())
	results := make([]result, len(selected))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, e := range selected {
		wg.Add(1)
		go func(i int, e experiments.Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			results[i].err = e.Run(&results[i].out, scale)
			results[i].took = time.Since(start)
		}(i, e)
	}
	wg.Wait()
	for i, e := range selected {
		fmt.Printf("=== %s: %s (scale %g)\n", e.ID, e.Title, scale)
		os.Stdout.Write(results[i].out.Bytes())
		if results[i].err != nil {
			return fmt.Errorf("%s: %w", e.ID, results[i].err)
		}
		fmt.Printf("--- %s done in %v\n\n", e.ID, results[i].took.Round(time.Millisecond))
	}
	return nil
}
