package vrsim_test

import (
	"fmt"
	"log"

	vrsim "repro"
)

// ExampleAccessTime evaluates the paper's Section 4 access-time equation.
func ExampleAccessTime() {
	p := vrsim.DefaultTimeParams(0.9, 0.5) // h1=0.9, h2=0.5, t1=1, t2=4, tm=20
	fmt.Printf("Tacc = %.2f cycles\n", vrsim.AccessTime(p))
	// Output: Tacc = 2.10 cycles
}

// ExampleCrossover finds the translation penalty at which the V-R
// organization overtakes an R-R hierarchy with better hit ratios — the
// paper's Figure 6 analysis.
func ExampleCrossover() {
	vr := vrsim.DefaultTimeParams(0.888, 0.585)
	rr := vrsim.DefaultTimeParams(0.908, 0.498)
	fmt.Printf("V-R wins once translation slows the R-cache by %.1f%%\n",
		100*vrsim.Crossover(vr, rr))
	// Output: V-R wins once translation slows the R-cache by 7.1%
}

// ExampleSystem_Apply drives individual references through a machine.
func ExampleSystem_Apply() {
	sys, err := vrsim.New(vrsim.Config{
		CPUs:         1,
		Organization: vrsim.VR,
		L1:           vrsim.Geometry{Size: 1 << 10, Block: 16, Assoc: 1},
		L2:           vrsim.Geometry{Size: 8 << 10, Block: 32, Assoc: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	w, _ := sys.Apply(vrsim.Ref{CPU: 0, Kind: vrsim.Write, PID: 1, Addr: 0x1000})
	r, _ := sys.Apply(vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x1000})
	fmt.Printf("write stamped token %d; read hit L%d and observed token %d\n",
		w.Token, r.Level(), r.Token)
	// Output: write stamped token 1; read hit L1 and observed token 1
}

// ExampleNew builds the paper's V-R machine and runs a scaled-down
// pops-like workload.
func ExampleNew() {
	sys, err := vrsim.New(vrsim.Config{
		CPUs:         4,
		Organization: vrsim.VR,
		L1:           vrsim.Geometry{Size: 16 << 10, Block: 16, Assoc: 1},
		L2:           vrsim.Geometry{Size: 256 << 10, Block: 32, Assoc: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := vrsim.RunWorkload(sys, vrsim.PopsWorkload().Scaled(0.01)); err != nil {
		log.Fatal(err)
	}
	// Hit ratios depend on the (deterministic) workload; report a stable
	// derived fact instead of raw numbers.
	agg := sys.Aggregate()
	fmt.Println("ran:", sys.Refs() > 0)
	fmt.Println("h1 in (0.5, 1):", agg.H1 > 0.5 && agg.H1 < 1)
	// Output:
	// ran: true
	// h1 in (0.5, 1): true
}

// signalNames is an EventSink that keeps the kind name of every event its
// filter accepts.
type signalNames struct {
	keep  func(vrsim.Event) bool
	names []string
}

func (s *signalNames) Event(ev vrsim.Event) {
	if s.keep(ev) {
		s.names = append(s.names, ev.Kind.String())
	}
}

// ExampleNewProbe watches the first-level side of the Table 4 interface
// signals of a synonym resolution on the probe stream.
func ExampleNewProbe() {
	keep, err := vrsim.ParseEventFilter("l1-hit,l1-miss,l1-replace,data-supply,invack,synonym")
	if err != nil {
		log.Fatal(err)
	}
	sink := &signalNames{keep: keep}
	pr := vrsim.NewProbe()
	pr.AddSink(sink)
	sys, err := vrsim.New(vrsim.Config{
		CPUs:         1,
		Organization: vrsim.VR,
		PageSize:     4096,
		L1:           vrsim.Geometry{Size: 8 << 10, Block: 16, Assoc: 1},
		L2:           vrsim.Geometry{Size: 64 << 10, Block: 32, Assoc: 1},
		Probe:        pr,
	})
	if err != nil {
		log.Fatal(err)
	}
	// One physical page under two virtual names in different V-cache sets.
	seg := sys.MMU().NewSegment(4096)
	if err := sys.MMU().MapShared(1, 0x10000, seg); err != nil {
		log.Fatal(err)
	}
	if err := sys.MMU().MapShared(1, 0x31000, seg); err != nil {
		log.Fatal(err)
	}
	sys.Apply(vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x10000})
	sink.names = nil // keep only the synonym access's signals
	sys.Apply(vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 1, Addr: 0x31000})
	for _, k := range sink.names {
		fmt.Println(k)
	}
	// Output:
	// l1-miss
	// syn-move
}
