// Synonym demo: two processes map the same physical page at different
// virtual addresses and take turns accessing it. The V-cache is virtually
// addressed, so the copies would alias — the R-cache's reverse-translation
// pointers detect every case and keep exactly one V-cache copy, moving or
// retagging it as the name changes. Run with -v to watch each access, and
// with -signals to watch every probe event, the Table 4 interface signals
// among them, as the machine emits it.
package main

import (
	"flag"
	"fmt"
	"log"

	vrsim "repro"
)

func main() {
	verbose := flag.Bool("v", false, "print every access")
	signals := flag.Bool("signals", false, "print every probe event, Table 4 signals included")
	flag.Parse()

	var pr *vrsim.Probe
	if *signals {
		pr = vrsim.NewProbe()
		pr.AddSink(printSink{})
	}
	sys, err := vrsim.New(vrsim.Config{
		CPUs:         1,
		Organization: vrsim.VR,
		PageSize:     4096,
		Probe:        pr,
		// An 8K virtually-indexed cache over 4K pages: virtual index bits
		// exceed the page offset, so synonyms can land in different sets.
		L1:          vrsim.Geometry{Size: 8 << 10, Block: 16, Assoc: 1},
		L2:          vrsim.Geometry{Size: 64 << 10, Block: 32, Assoc: 1},
		CheckOracle: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One shared page, mapped by process 1 at 0x10000 and process 2 at
	// 0x31000. The offsets differ by an odd number of pages, so the two
	// names index different V-cache sets.
	seg := sys.MMU().NewSegment(4096)
	if err := sys.MMU().MapShared(1, 0x10000, seg); err != nil {
		log.Fatal(err)
	}
	if err := sys.MMU().MapShared(2, 0x31000, seg); err != nil {
		log.Fatal(err)
	}

	access := func(kind vrsim.Ref, label string) vrsim.AccessResult {
		res, err := sys.Apply(kind)
		if err != nil {
			log.Fatal(err)
		}
		if *verbose {
			fmt.Printf("%-28s L%d synonym=%v token=%d\n", label, res.Level(), res.Synonym, res.Token)
		}
		return res
	}

	// Process 1 writes the shared page under its name.
	w := access(vrsim.Ref{CPU: 0, Kind: vrsim.Write, PID: 1, Addr: 0x10040}, "P1 write 0x10040")

	// Context switch to process 2, which reads the same data under its own
	// virtual address: a V-cache miss, an R-cache hit, and a synonym
	// resolution that hands over process 1's dirty copy without touching
	// memory.
	if _, err := sys.Apply(vrsim.Ref{CPU: 0, Kind: vrsim.CtxSwitch, PID: 2}); err != nil {
		log.Fatal(err)
	}
	r := access(vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 2, Addr: 0x31040}, "P2 read  0x31040")

	fmt.Printf("P1 wrote token %d at VA 0x10040; P2 read token %d at VA 0x31040\n", w.Token, r.Token)
	fmt.Printf("resolution: %v (paper: move(v-pointer) when the synonym is in a different set)\n", r.Synonym)

	// Ping-pong between the two names a few times; every switch of name is
	// resolved at the second level, never by going to memory.
	for i := 0; i < 3; i++ {
		if _, err := sys.Apply(vrsim.Ref{CPU: 0, Kind: vrsim.CtxSwitch, PID: 1}); err != nil {
			log.Fatal(err)
		}
		access(vrsim.Ref{CPU: 0, Kind: vrsim.Write, PID: 1, Addr: 0x10040}, "P1 write 0x10040")
		if _, err := sys.Apply(vrsim.Ref{CPU: 0, Kind: vrsim.CtxSwitch, PID: 2}); err != nil {
			log.Fatal(err)
		}
		access(vrsim.Ref{CPU: 0, Kind: vrsim.Read, PID: 2, Addr: 0x31040}, "P2 read  0x31040")
	}

	st := sys.Stats(0)
	fmt.Printf("synonym resolutions: sameset=%d move=%d buffer-reattach=%d\n",
		st.Synonyms[1], st.Synonyms[2], st.Synonyms[4])
	fmt.Println("the data oracle verified every read returned the newest write")
}

// printSink prints each event as it is emitted, so the lines fall in order
// with the -v access lines (an EventLog would buffer them until Close).
type printSink struct{}

func (printSink) Event(ev vrsim.Event) { fmt.Println("   event:", ev) }
