package cycles

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/probe"
)

func TestValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
	if err := ContentionParams().Validate(); err != nil {
		t.Fatalf("ContentionParams invalid: %v", err)
	}
	if err := (Params{T1: 1, T2: 4}).Validate(); err == nil {
		t.Fatal("zero TM accepted")
	}
	if _, err := New(Params{}, nil); err == nil {
		t.Fatal("New accepted zero params")
	}
}

func TestEndAccessLevels(t *testing.T) {
	e := MustNew(DefaultParams(), nil)
	c := e.CPU(0)
	c.EndAccess(0, 1)
	c.EndAccess(0, 2)
	c.EndAccess(0, 3)
	at := e.Agent(0)
	if want := uint64(1 + 4 + 20); at.Clock != want {
		t.Fatalf("clock = %d, want %d", at.Clock, want)
	}
	if at.Refs != 3 {
		t.Fatalf("refs = %d, want 3", at.Refs)
	}
	if at.Clock != at.Breakdown.Total() {
		t.Fatalf("clock %d != breakdown total %d", at.Clock, at.Breakdown.Total())
	}
	if got, want := at.Tacc(), 25.0/3.0; got != want {
		t.Fatalf("Tacc = %v, want %v", got, want)
	}
	if got, want := e.Tacc(), 25.0/3.0; got != want {
		t.Fatalf("engine Tacc = %v, want %v", got, want)
	}
}

func TestNilHandleIsSafe(t *testing.T) {
	var e *Engine
	c := e.CPU(3)
	if c != nil {
		t.Fatal("nil engine returned non-nil handle")
	}
	// All charge methods must be no-ops on a nil handle.
	c.EndAccess(0, 1)
	c.TLBMiss()
	c.CtxSwitch()
	c.BusWrite()
	c.WBStall()
}

func TestBusContentionQueuesFIFO(t *testing.T) {
	p := DefaultParams()
	p.BusMemOcc = 10
	p.Contention = true
	e := MustNew(p, nil)

	// CPU 0 and CPU 1 both at cycle 0 issue memory transactions. The first
	// is granted immediately; the second queues behind its occupancy.
	e.OnTxn(bus.Txn{From: 0, Kind: bus.Read})
	e.OnTxn(bus.Txn{From: 1, Kind: bus.Read})
	if w := e.Agent(0).BusWait; w != 0 {
		t.Fatalf("first requester waited %d cycles", w)
	}
	if w := e.Agent(1).BusWait; w != 10 {
		t.Fatalf("second requester waited %d cycles, want 10", w)
	}
	if e.BusBusy() != 20 || e.BusTxns() != 2 {
		t.Fatalf("bus busy/txns = %d/%d, want 20/2", e.BusBusy(), e.BusTxns())
	}
	if e.BusWait() != 10 {
		t.Fatalf("total bus wait = %d, want 10", e.BusWait())
	}
}

func TestContentionOffTracksUtilizationOnly(t *testing.T) {
	p := DefaultParams()
	p.BusMemOcc = 10
	e := MustNew(p, nil)
	e.OnTxn(bus.Txn{From: 0, Kind: bus.Read})
	e.OnTxn(bus.Txn{From: 1, Kind: bus.Read})
	if e.BusWait() != 0 {
		t.Fatalf("contention off but %d wait cycles charged", e.BusWait())
	}
	if e.BusBusy() != 20 {
		t.Fatalf("bus busy = %d, want 20", e.BusBusy())
	}
}

func TestZeroOccupancyIsFree(t *testing.T) {
	// DefaultParams has all occupancies zero: transactions must not reserve
	// the bus, or phantom queueing would break the closed-form equivalence.
	e := MustNew(DefaultParams(), nil)
	e.OnTxn(bus.Txn{From: 0, Kind: bus.Read})
	e.CPU(0).BusWrite()
	if e.BusBusy() != 0 || e.BusTxns() != 0 {
		t.Fatalf("free transactions reserved the bus: busy=%d txns=%d", e.BusBusy(), e.BusTxns())
	}
	if e.Agents() != 0 {
		t.Fatalf("free transactions grew the agent table to %d", e.Agents())
	}
}

func TestBusWriteOverlapsWithProcessor(t *testing.T) {
	p := ContentionParams()
	e := MustNew(p, nil)
	c := e.CPU(0)
	c.EndAccess(0, 1) // clock = 1
	c.BusWrite()      // drain occupies [1, 5) but does not advance the clock
	if at := e.Agent(0); at.Clock != 1 {
		t.Fatalf("background write advanced the clock to %d", at.Clock)
	}
	if e.BusBusy() != p.BusWBOcc {
		t.Fatalf("bus busy = %d, want %d", e.BusBusy(), p.BusWBOcc)
	}
	// A stall right after must wait out the drain's occupancy.
	c.WBStall()
	at := e.Agent(0)
	if at.Clock != 1+p.BusWBOcc {
		t.Fatalf("stall left clock at %d, want %d", at.Clock, 1+p.BusWBOcc)
	}
	if at.Stall != p.BusWBOcc {
		t.Fatalf("stall cycles = %d, want %d", at.Stall, p.BusWBOcc)
	}
	if at.Clock != at.Breakdown.Total() {
		t.Fatalf("clock %d != breakdown total %d", at.Clock, at.Breakdown.Total())
	}
}

func TestWBStallNeedsContention(t *testing.T) {
	p := DefaultParams()
	p.BusWBOcc = 4
	e := MustNew(p, nil)
	c := e.CPU(0)
	c.BusWrite()
	c.WBStall()
	if at := e.Agent(0); at.Clock != 0 || at.Stall != 0 {
		t.Fatalf("stall charged without contention: clock=%d stall=%d", at.Clock, at.Stall)
	}
}

func TestPenaltiesAndReset(t *testing.T) {
	p := DefaultParams()
	p.TLBMissPenalty = 7
	p.CtxSwitchCost = 30
	e := MustNew(p, nil)
	c := e.CPU(2)
	c.TLBMiss()
	c.CtxSwitch()
	at := e.Agent(2)
	if at.TLB != 7 || at.Ctx != 30 || at.Clock != 37 {
		t.Fatalf("penalties: %+v", at)
	}
	if at.Refs != 0 {
		t.Fatalf("penalties counted as references: %d", at.Refs)
	}
	if e.Tacc() != 0 {
		t.Fatalf("Tacc over zero refs = %v", e.Tacc())
	}
	e.Reset()
	if at := e.Agent(2); at != (AgentTiming{}) {
		t.Fatalf("Reset left state: %+v", at)
	}
	if e.BusBusy() != 0 || e.BusTxns() != 0 {
		t.Fatal("Reset left bus counters")
	}
}

func TestDMAAgentsExcludedFromTacc(t *testing.T) {
	p := ContentionParams()
	e := MustNew(p, nil)
	e.CPU(0).EndAccess(0, 1)                  // a real CPU: 1 ref, 1 cycle
	e.OnTxn(bus.Txn{From: 5, Kind: bus.Read}) // a DMA engine: bus time, no refs
	e.OnTxn(bus.Txn{From: 5, Kind: bus.Read})
	if got := e.Tacc(); got != 1 {
		t.Fatalf("Tacc = %v, want 1 (DMA agent must not dilute the average)", got)
	}
	if e.TotalRefs() != 1 {
		t.Fatalf("TotalRefs = %d, want 1", e.TotalRefs())
	}
}

// auxSink tallies event Aux values by kind.
type auxSink struct{ sums [probe.NumKinds]uint64 }

func (s *auxSink) Event(ev probe.Event) { s.sums[ev.Kind] += ev.Aux }

func TestProbeEventsMirrorCharges(t *testing.T) {
	pr := probe.New()
	sink := &auxSink{}
	pr.AddSink(sink)

	p := ContentionParams()
	p.TLBMissPenalty = 7
	p.CtxSwitchCost = 30
	e := MustNew(p, pr)
	c := e.CPU(0)
	c.EndAccess(0, 3)
	c.TLBMiss()
	c.CtxSwitch()
	c.BusWrite()
	c.WBStall()
	e.OnTxn(bus.Txn{From: 1, Kind: bus.Invalidate}) // queues behind the drain
	sums := sink.sums

	at := e.Agent(0)
	if sums[probe.EvTimeAccess] != at.Access {
		t.Fatalf("access events sum to %d, breakdown says %d", sums[probe.EvTimeAccess], at.Access)
	}
	if sums[probe.EvTimeTLBMiss] != at.TLB {
		t.Fatalf("tlb events sum to %d, breakdown says %d", sums[probe.EvTimeTLBMiss], at.TLB)
	}
	if sums[probe.EvTimeWBStall] != at.Stall {
		t.Fatalf("stall events sum to %d, breakdown says %d", sums[probe.EvTimeWBStall], at.Stall)
	}
	if sums[probe.EvTimeCtxSwitch] != at.Ctx {
		t.Fatalf("ctx events sum to %d, breakdown says %d", sums[probe.EvTimeCtxSwitch], at.Ctx)
	}
	if sums[probe.EvTimeBusWait] != e.BusWait() {
		t.Fatalf("bus-wait events sum to %d, engine says %d", sums[probe.EvTimeBusWait], e.BusWait())
	}
}
