package core

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// rig is a miniature multiprocessor: n hierarchies on one bus, one MMU, one
// memory, plus a sequential-consistency oracle. Every access runs the audit
// checker over every hierarchy.
type rig struct {
	t      *testing.T
	mmu    *vm.MMU
	bus    *bus.Bus
	mem    *memory.Memory
	tokens *TokenSource
	hs     []Hierarchy
	oracle map[addr.PAddr]uint64
}

// testPageSize is small so virtual L1 index bits exceed the page offset and
// synonym moves (not just sameset) occur.
const testPageSize = 64

func baseOptions(r *rig) Options {
	return Options{
		MMU:    r.mmu,
		Bus:    r.bus,
		Mem:    r.mem,
		Tokens: r.tokens,
		L1:     cache.Geometry{Size: 128, Block: 16, Assoc: 1},
		L2:     cache.Geometry{Size: 512, Block: 32, Assoc: 2},

		TLBEntries:      64,
		TLBAssoc:        2,
		WriteBufDepth:   1,
		WriteBufLatency: 4,
	}
}

type mkFunc func(Options) (Hierarchy, error)

func vrMk(o Options) (Hierarchy, error) { return NewVR(o) }
func rrMk(o Options) (Hierarchy, error) { return NewRR(o) }
func niMk(o Options) (Hierarchy, error) { return NewRRNoInclusion(o) }

func newRig(t *testing.T, n int, mk mkFunc, tweak func(*Options)) *rig {
	t.Helper()
	r := &rig{
		t:      t,
		mmu:    vm.MustNew(testPageSize),
		bus:    bus.New(),
		mem:    memory.MustNew(16),
		tokens: &TokenSource{},
		oracle: map[addr.PAddr]uint64{},
	}
	for i := 0; i < n; i++ {
		o := baseOptions(r)
		if tweak != nil {
			tweak(&o)
		}
		h, err := mk(o)
		if err != nil {
			t.Fatal(err)
		}
		r.hs = append(r.hs, h)
	}
	return r
}

// access applies one reference, audits the whole machine, and checks the
// data oracle.
func (r *rig) access(cpu int, kind trace.Kind, pid addr.PID, va addr.VAddr) AccessResult {
	r.t.Helper()
	res := r.hs[cpu].Access(trace.Ref{CPU: uint8(cpu), Kind: kind, PID: pid, Addr: va})
	if found := machineSnapshot(r).Check(); len(found) != 0 {
		r.t.Fatalf("audit after %v %v by cpu %d: %v", kind, va, cpu, found)
	}
	if !res.CtxSwitch {
		if kind == trace.Write {
			r.oracle[res.PA] = res.Token
		} else {
			if want := r.oracle[res.PA]; res.Token != want {
				r.t.Fatalf("oracle: cpu %d %v %#x (pa %#x) read token %d, want %d",
					cpu, kind, uint64(va), uint64(res.PA), res.Token, want)
			}
		}
	}
	return res
}

// machineSnapshot assembles the cross-CPU snapshot the system layer would.
func machineSnapshot(r *rig) *audit.Snapshot {
	s := &audit.Snapshot{Organization: "test", CPUs: make([]*audit.CPUSnapshot, 0, len(r.hs))}
	for _, h := range r.hs {
		s.CPUs = append(s.CPUs, h.Snapshot())
	}
	return s
}

func (r *rig) read(cpu int, pid addr.PID, va addr.VAddr) AccessResult {
	return r.access(cpu, trace.Read, pid, va)
}
func (r *rig) write(cpu int, pid addr.PID, va addr.VAddr) AccessResult {
	return r.access(cpu, trace.Write, pid, va)
}
func (r *rig) ifetch(cpu int, pid addr.PID, va addr.VAddr) AccessResult {
	return r.access(cpu, trace.IFetch, pid, va)
}
func (r *rig) ctxSwitch(cpu int, pid addr.PID) {
	r.access(cpu, trace.CtxSwitch, pid, 0)
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(t, 1, vrMk, nil)
	res := r.read(0, 1, 0x100)
	if res.L1Hit || res.L2Hit {
		t.Fatalf("cold read: %+v", res)
	}
	if res.Level() != 3 {
		t.Fatalf("Level = %d", res.Level())
	}
	res = r.read(0, 1, 0x104)
	if !res.L1Hit {
		t.Fatalf("second read should hit L1: %+v", res)
	}
	st := r.hs[0].Stats()
	if st.L1.Overall().Hits != 1 || st.L1.Overall().Total != 2 {
		t.Errorf("L1 stats = %+v", st.L1.Overall())
	}
}

func TestWriteReadBack(t *testing.T) {
	r := newRig(t, 1, vrMk, nil)
	w := r.write(0, 1, 0x200)
	if w.Token == 0 {
		t.Fatal("write got no token")
	}
	got := r.read(0, 1, 0x200)
	if got.Token != w.Token {
		t.Fatalf("read back %d, want %d", got.Token, w.Token)
	}
}

func TestL1ConflictEvictionWritesBack(t *testing.T) {
	r := newRig(t, 1, vrMk, nil)
	// 128B direct-mapped L1: 0x000 and 0x080 conflict (8 sets of 16B).
	w := r.write(0, 1, 0x000)
	r.read(0, 1, 0x080) // evicts dirty 0x000 into the write buffer
	st := r.hs[0].Stats()
	if st.WriteBacks != 1 {
		t.Fatalf("WriteBacks = %d, want 1", st.WriteBacks)
	}
	// Let the buffer drain, then read the block back through L2.
	for i := 0; i < 8; i++ {
		r.read(0, 1, 0x080)
	}
	got := r.read(0, 1, 0x000)
	if got.Token != w.Token {
		t.Fatalf("read back after write-back: %d, want %d", got.Token, w.Token)
	}
	if got.L1Hit {
		t.Fatal("block should have been evicted from L1")
	}
}

func TestBufferReattachCancelsWriteBack(t *testing.T) {
	r := newRig(t, 1, vrMk, func(o *Options) {
		o.WriteBufLatency = 1000 // keep entries buffered
	})
	// Map one segment at two virtual bases conflicting in L1 set 0:
	// 0x080 (block 8, set 0) and 0x200 (block 32, set 0).
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x080, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(1, 0x200, seg); err != nil {
		t.Fatal(err)
	}
	w := r.write(0, 1, 0x080)
	// Access the same physical block via the other name: the dirty victim
	// is the synonym itself; its write-back must be canceled and the data
	// reattached.
	got := r.read(0, 1, 0x200)
	if got.Token != w.Token {
		t.Fatalf("synonym read token %d, want %d", got.Token, w.Token)
	}
	if got.Synonym != SynBuffered {
		t.Fatalf("synonym kind = %v, want %v", got.Synonym, SynBuffered)
	}
	st := r.hs[0].Stats()
	if st.Synonyms[SynBuffered] != 1 {
		t.Errorf("SynBuffered = %d", st.Synonyms[SynBuffered])
	}
	// The block must still be dirty under its new name: a further write
	// needs no coherence work, and reading back via the old name returns
	// the newest data.
	w2 := r.write(0, 1, 0x200)
	got = r.read(0, 1, 0x080)
	if got.Token != w2.Token {
		t.Fatalf("re-synonym read %d, want %d", got.Token, w2.Token)
	}
}

func TestSynonymMoveAcrossSets(t *testing.T) {
	r := newRig(t, 1, vrMk, nil)
	// Page size 64: bases 0x040 (block 4, set 4) and 0x080 (block 8, set 0)
	// name the same physical page but land in different L1 sets.
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(1, 0x080, seg); err != nil {
		t.Fatal(err)
	}
	w := r.write(0, 1, 0x040)
	got := r.read(0, 1, 0x080)
	if got.Synonym != SynMove {
		t.Fatalf("synonym kind = %v, want %v", got.Synonym, SynMove)
	}
	if got.Token != w.Token {
		t.Fatalf("moved synonym token %d, want %d", got.Token, w.Token)
	}
	// The old name must now miss in L1 (single-copy guarantee) but find the
	// data again by moving it back.
	got = r.read(0, 1, 0x040)
	if got.L1Hit {
		t.Fatal("old virtual name still live after move")
	}
	if got.Synonym != SynMove || got.Token != w.Token {
		t.Fatalf("move back: %+v", got)
	}
	if st := r.hs[0].Stats(); st.Synonyms[SynMove] != 2 {
		t.Errorf("SynMove = %d, want 2", st.Synonyms[SynMove])
	}
}

func TestSynonymSameSetRetag(t *testing.T) {
	r := newRig(t, 1, vrMk, func(o *Options) {
		o.L1.Assoc = 2 // two ways so the synonym is not the victim
	})
	// 128B 2-way: 4 sets. Bases 0x100 (block 16, set 0) and 0x200
	// (block 32, set 0) collide in set 0.
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x100, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(1, 0x200, seg); err != nil {
		t.Fatal(err)
	}
	w := r.write(0, 1, 0x100)
	got := r.read(0, 1, 0x200)
	if got.Synonym != SynSameSet {
		t.Fatalf("synonym kind = %v, want %v", got.Synonym, SynSameSet)
	}
	if got.Token != w.Token {
		t.Fatalf("retagged token %d, want %d", got.Token, w.Token)
	}
	if got2 := r.read(0, 1, 0x200); !got2.L1Hit {
		t.Fatal("retagged line should hit")
	}
}

func TestCrossProcessSynonym(t *testing.T) {
	r := newRig(t, 1, vrMk, nil)
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(2, 0x080, seg); err != nil {
		t.Fatal(err)
	}
	w := r.write(0, 1, 0x040)
	r.ctxSwitch(0, 2)
	// Process 2 reads the shared page under its own mapping; the swapped
	// dirty copy of process 1 must be found and handed over.
	got := r.read(0, 2, 0x080)
	if got.Token != w.Token {
		t.Fatalf("cross-process synonym token %d, want %d", got.Token, w.Token)
	}
	if got.Synonym == SynNone {
		t.Fatal("no synonym resolution recorded")
	}
}

func TestContextSwitchLazyWriteBack(t *testing.T) {
	r := newRig(t, 1, vrMk, nil)
	w := r.write(0, 1, 0x000)
	r.ctxSwitch(0, 2)
	st := r.hs[0].Stats()
	if st.CtxSwitches != 1 {
		t.Fatalf("CtxSwitches = %d", st.CtxSwitches)
	}
	if st.WriteBacks != 0 {
		t.Fatal("lazy switch wrote back immediately")
	}
	// Process 2 touches a conflicting private block: now the swapped dirty
	// line is replaced and written back.
	r.read(0, 2, 0x080)
	st = r.hs[0].Stats()
	if st.WriteBacks != 1 || st.SwappedWriteBacks != 1 {
		t.Fatalf("writebacks = %d swapped = %d", st.WriteBacks, st.SwappedWriteBacks)
	}
	// Process 1 returns; its data survived via L2.
	r.ctxSwitch(0, 1)
	for i := 0; i < 8; i++ { // drain the buffer
		r.read(0, 2, 0x080)
	}
	got := r.read(0, 1, 0x000)
	if got.Token != w.Token {
		t.Fatalf("data lost across context switches: %d want %d", got.Token, w.Token)
	}
}

func TestContextSwitchHidesLines(t *testing.T) {
	r := newRig(t, 1, vrMk, nil)
	r.read(0, 1, 0x000)
	r.ctxSwitch(0, 2)
	got := r.read(0, 2, 0x000)
	if got.L1Hit {
		t.Fatal("new process hit old process's line")
	}
	// Distinct processes' private pages are distinct physical blocks.
	if got.L2Hit {
		t.Fatal("private pages aliased in L2")
	}
}

func TestEagerFlushAblation(t *testing.T) {
	r := newRig(t, 1, vrMk, func(o *Options) { o.EagerCtxFlush = true })
	r.write(0, 1, 0x000)
	r.write(0, 1, 0x010)
	r.read(0, 1, 0x020)
	r.ctxSwitch(0, 2)
	st := r.hs[0].Stats()
	if st.EagerFlushWriteBacks != 2 {
		t.Fatalf("EagerFlushWriteBacks = %d, want 2", st.EagerFlushWriteBacks)
	}
	// Everything was invalidated: nothing swapped remains.
	got := r.read(0, 2, 0x000)
	if got.L1Hit {
		t.Fatal("line survived eager flush")
	}
}

func TestCoherenceWritePropagates(t *testing.T) {
	r := newRig(t, 2, vrMk, nil)
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(2, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	w := r.write(0, 1, 0x040)
	got := r.read(1, 2, 0x040)
	if got.Token != w.Token {
		t.Fatalf("cpu1 read %d, want %d", got.Token, w.Token)
	}
	// cpu0's copy is now clean-shared; writing again must invalidate cpu1.
	w2 := r.write(0, 1, 0x040)
	got = r.read(1, 2, 0x040)
	if got.Token != w2.Token {
		t.Fatalf("cpu1 read %d after second write, want %d", got.Token, w2.Token)
	}
	if got.L1Hit {
		t.Fatal("cpu1's stale copy survived the invalidation")
	}
}

func TestCoherencePingPongWrites(t *testing.T) {
	r := newRig(t, 2, vrMk, nil)
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(2, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	var last AccessResult
	for i := 0; i < 6; i++ {
		last = r.write(i%2, addr.PID(i%2+1), 0x040)
	}
	got := r.read(0, 1, 0x040)
	if got.Token != last.Token {
		t.Fatalf("final read %d, want %d", got.Token, last.Token)
	}
}

func TestShieldingCleanBlocksNotDisturbed(t *testing.T) {
	r := newRig(t, 2, vrMk, nil)
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(2, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	// Both CPUs read (clean copies everywhere).
	r.read(0, 1, 0x040)
	r.read(1, 2, 0x040)
	before := r.hs[0].Stats().Coherence.Total()
	// cpu1 re-reads: no bus traffic at all (hit). cpu1 misses elsewhere
	// (private blocks): bus read-miss transactions that cpu0's R-cache
	// answers without disturbing its V-cache.
	for i := 0; i < 10; i++ {
		r.read(1, 2, addr.VAddr(0x400+i*16))
	}
	after := r.hs[0].Stats().Coherence.Total()
	if after != before {
		t.Fatalf("V-cache disturbed %d times by irrelevant traffic", after-before)
	}
}

func TestSnoopFlushOnRemoteRead(t *testing.T) {
	r := newRig(t, 2, vrMk, nil)
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(2, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	r.write(0, 1, 0x040)
	r.read(1, 2, 0x040)
	st0 := r.hs[0].Stats()
	if st0.Coherence.Get(stats.MsgFlush) != 1 {
		t.Fatalf("flush messages = %d, want 1 (%s)", st0.Coherence.Get(stats.MsgFlush), st0.Coherence.String())
	}
	// cpu0 still holds the copy, now clean: its next read hits.
	got := r.read(0, 1, 0x040)
	if !got.L1Hit {
		t.Fatal("flushed copy was lost instead of cleaned")
	}
}

func TestSnoopInvalidateMessage(t *testing.T) {
	r := newRig(t, 2, vrMk, nil)
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(2, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	r.read(0, 1, 0x040) // cpu0 clean copy
	r.write(1, 2, 0x040)
	st0 := r.hs[0].Stats()
	if st0.Coherence.Get(stats.MsgInvalidate) == 0 {
		t.Fatalf("no invalidate message reached cpu0's V-cache (%s)", st0.Coherence.String())
	}
	if got := r.read(0, 1, 0x040); got.L1Hit {
		t.Fatal("invalidated copy still live")
	}
}

func TestSplitIDCaches(t *testing.T) {
	r := newRig(t, 1, vrMk, func(o *Options) { o.Split = true })
	r.ifetch(0, 1, 0x000)
	r.read(0, 1, 0x000) // same VA as data: cross-cache synonym
	st := r.hs[0].Stats()
	if st.Synonyms[SynCross] != 1 {
		t.Fatalf("SynCross = %d, want 1 (%v)", st.Synonyms[SynCross], st.Synonyms)
	}
	// And back: instruction fetch pulls it from the D side again.
	res := r.ifetch(0, 1, 0x000)
	if res.Synonym != SynCross {
		t.Fatalf("second cross move: %+v", res)
	}
}

func TestSplitWriteThenFetch(t *testing.T) {
	r := newRig(t, 1, vrMk, func(o *Options) { o.Split = true })
	w := r.write(0, 1, 0x300)
	got := r.ifetch(0, 1, 0x300)
	if got.Token != w.Token {
		t.Fatalf("ifetch of freshly written block: %d want %d", got.Token, w.Token)
	}
}

func TestInclusionInvalidationFallback(t *testing.T) {
	// L2 with a single set (fully associative, 2 ways) and L1 big enough to
	// keep children in every L2 line: the third distinct L2 block forces a
	// victim with children.
	r := newRig(t, 1, vrMk, func(o *Options) {
		o.L1 = cache.Geometry{Size: 256, Block: 16, Assoc: 2}
		o.L2 = cache.Geometry{Size: 64, Block: 32, Assoc: 2}
	})
	r.read(0, 1, 0x000)
	r.read(0, 1, 0x110)
	r.read(0, 1, 0x220)
	st := r.hs[0].Stats()
	if st.InclusionInvals == 0 {
		t.Fatal("expected inclusion invalidations with a tiny L2")
	}
	if st.Coherence.Get(stats.MsgInclusionInvalidate) != st.InclusionInvals {
		t.Error("inclusion invalidations not counted as coherence messages")
	}
}

func TestRRBasics(t *testing.T) {
	r := newRig(t, 1, rrMk, nil)
	w := r.write(0, 1, 0x123)
	got := r.read(0, 1, 0x123)
	if !got.L1Hit || got.Token != w.Token {
		t.Fatalf("RR read back: %+v want token %d", got, w.Token)
	}
	// Context switches leave the physical L1 alone.
	r.ctxSwitch(0, 2)
	r.ctxSwitch(0, 1)
	got = r.read(0, 1, 0x123)
	if !got.L1Hit {
		t.Fatal("RR L1 lost lines across context switches")
	}
	if st := r.hs[0].Stats(); st.SynonymTotal() != st.Synonyms[SynNone] {
		t.Error("RR hierarchy resolved synonyms; none should occur")
	}
}

func TestRRTranslatesEveryReference(t *testing.T) {
	r := newRig(t, 1, rrMk, nil)
	for i := 0; i < 5; i++ {
		r.read(0, 1, 0x040)
	}
	st := r.hs[0].Stats()
	if st.TLB.Hits+st.TLB.Misses != 5 {
		t.Fatalf("RR TLB lookups = %d, want 5", st.TLB.Hits+st.TLB.Misses)
	}
	// The V-R organization translates only on L1 misses.
	rv := newRig(t, 1, vrMk, nil)
	for i := 0; i < 5; i++ {
		rv.read(0, 1, 0x040)
	}
	stv := rv.hs[0].Stats()
	if stv.TLB.Hits+stv.TLB.Misses != 1 {
		t.Fatalf("VR TLB lookups = %d, want 1", stv.TLB.Hits+stv.TLB.Misses)
	}
}

func TestNoInclusionBasics(t *testing.T) {
	r := newRig(t, 2, niMk, nil)
	seg := r.mmu.NewSegment(testPageSize)
	if err := r.mmu.MapShared(1, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.MapShared(2, 0x040, seg); err != nil {
		t.Fatal(err)
	}
	w := r.write(0, 1, 0x040)
	got := r.read(1, 2, 0x040)
	if got.Token != w.Token {
		t.Fatalf("no-incl coherence: read %d want %d", got.Token, w.Token)
	}
	w2 := r.write(1, 2, 0x040)
	got = r.read(0, 1, 0x040)
	if got.Token != w2.Token {
		t.Fatalf("no-incl invalidation: read %d want %d", got.Token, w2.Token)
	}
}

func TestNoInclusionProbesOnEveryTransaction(t *testing.T) {
	r := newRig(t, 2, niMk, nil)
	// cpu1 generates misses on private data; cpu0's L1 gets probed each time.
	for i := 0; i < 10; i++ {
		r.read(1, 2, addr.VAddr(0x400+i*32))
	}
	probes := r.hs[0].Stats().Coherence.Get(stats.MsgProbe)
	if probes != 10 {
		t.Fatalf("probes = %d, want 10", probes)
	}
}

func TestNoInclusionL1SurvivesL2Eviction(t *testing.T) {
	r := newRig(t, 1, niMk, func(o *Options) {
		o.L2 = cache.Geometry{Size: 64, Block: 32, Assoc: 2} // 1 set, 2 ways
	})
	w := r.write(0, 1, 0x000)
	// Two more L2 blocks (in other L1 sets) evict 0x000's L2 line; the L1
	// copy must survive.
	r.read(0, 1, 0x110)
	r.read(0, 1, 0x220)
	got := r.read(0, 1, 0x000)
	if !got.L1Hit {
		t.Fatal("no-inclusion L1 lost its line on L2 eviction")
	}
	if got.Token != w.Token {
		t.Fatalf("token %d want %d", got.Token, w.Token)
	}
}

func TestNoInclusionDirtyVictimBypassesAbsentL2(t *testing.T) {
	r := newRig(t, 1, niMk, func(o *Options) {
		o.L2 = cache.Geometry{Size: 64, Block: 32, Assoc: 2}
	})
	// Frames are demand-allocated in touch order: VA 0x000 -> pa 0x000,
	// VA 0x110 -> pa 0x050, VA 0x210 -> pa 0x090. The two reads evict pa
	// 0x000's L2 line (1-set L2) without touching its L1 set.
	w := r.write(0, 1, 0x000)
	r.read(0, 1, 0x110)
	r.read(0, 1, 0x210) // L2 line for pa 0x000 now gone
	// VA 0x200 -> pa 0x080, which conflicts with pa 0x000 in the
	// direct-mapped L1: the dirty victim's L2 line is absent.
	r.read(0, 1, 0x200)
	if r.hs[0].Stats().MemWritesDirect == 0 {
		t.Fatal("dirty victim with absent L2 line should write straight to memory")
	}
	got := r.read(0, 1, 0x000)
	if got.Token != w.Token {
		t.Fatalf("data lost on direct write-back: %d want %d", got.Token, w.Token)
	}
}

func TestDrainFlushesBuffer(t *testing.T) {
	r := newRig(t, 1, vrMk, func(o *Options) { o.WriteBufLatency = 1000 })
	r.write(0, 1, 0x000)
	r.read(0, 1, 0x080) // dirty victim parked in buffer
	r.hs[0].Drain()
	requireClean(t, r)
}

func TestAccessResultLevel(t *testing.T) {
	if (AccessResult{L1Hit: true}).Level() != 1 {
		t.Error("L1 level")
	}
	if (AccessResult{L2Hit: true}).Level() != 2 {
		t.Error("L2 level")
	}
	if (AccessResult{}).Level() != 3 {
		t.Error("memory level")
	}
}

func TestSynonymKindString(t *testing.T) {
	for k := SynNone; k <= SynBuffered; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no label", k)
		}
	}
}

func TestTokenSource(t *testing.T) {
	var ts TokenSource
	if ts.Next() != 1 || ts.Next() != 2 || ts.Last() != 2 {
		t.Error("token sequence wrong")
	}
}

// randomWorkload drives a rig with a seeded random mix of reads, writes,
// ifetches and context switches over private and shared pages, relying on
// the per-access oracle and invariant checks.
func randomWorkload(t *testing.T, mk mkFunc, tweak func(*Options), cpus, steps int, ctxSwitches bool) {
	t.Helper()
	r := newRig(t, cpus, mk, tweak)
	rng := rand.New(rand.NewSource(7))
	// Shared segment mapped by every process at a process-specific base.
	seg := r.mmu.NewSegment(2 * testPageSize)
	nProcs := 2 * cpus
	bases := make([]addr.VAddr, nProcs+1)
	for p := 1; p <= nProcs; p++ {
		bases[p] = addr.VAddr(0x1000 * uint64(p))
		if err := r.mmu.MapShared(addr.PID(p), bases[p], seg); err != nil {
			t.Fatal(err)
		}
	}
	cur := make([]addr.PID, cpus)
	for c := range cur {
		cur[c] = addr.PID(c + 1)
	}
	for i := 0; i < steps; i++ {
		c := rng.Intn(cpus)
		if ctxSwitches && rng.Intn(97) == 0 {
			cur[c] = addr.PID(rng.Intn(nProcs) + 1)
			r.ctxSwitch(c, cur[c])
			continue
		}
		pid := cur[c]
		var va addr.VAddr
		if rng.Intn(3) == 0 {
			va = bases[pid] + addr.VAddr(rng.Intn(2*testPageSize))
		} else {
			va = addr.VAddr(0x8000 + 0x400*uint64(pid) + uint64(rng.Intn(512)))
		}
		switch rng.Intn(4) {
		case 0:
			r.write(c, pid, va)
		case 1:
			r.ifetch(c, pid, va)
		default:
			r.read(c, pid, va)
		}
	}
}

func TestRandomVRUniprocessor(t *testing.T) {
	randomWorkload(t, vrMk, nil, 1, 3000, true)
}

func TestRandomVRMultiprocessor(t *testing.T) {
	randomWorkload(t, vrMk, nil, 4, 4000, true)
}

func TestRandomVRSplit(t *testing.T) {
	randomWorkload(t, vrMk, func(o *Options) { o.Split = true }, 2, 3000, true)
}

func TestRandomVRAssociative(t *testing.T) {
	randomWorkload(t, vrMk, func(o *Options) {
		o.L1.Assoc = 2
		o.L2.Assoc = 4
	}, 2, 3000, true)
}

func TestRandomVREagerFlush(t *testing.T) {
	randomWorkload(t, vrMk, func(o *Options) { o.EagerCtxFlush = true }, 2, 3000, true)
}

func TestRandomVRDeepBuffer(t *testing.T) {
	randomWorkload(t, vrMk, func(o *Options) {
		o.WriteBufDepth = 4
		o.WriteBufLatency = 16
	}, 2, 3000, true)
}

func TestRandomVRWideL2Blocks(t *testing.T) {
	randomWorkload(t, vrMk, func(o *Options) {
		o.L2 = cache.Geometry{Size: 1024, Block: 64, Assoc: 2}
	}, 2, 3000, true)
}

func TestRandomVRTinyL2(t *testing.T) {
	// Forces frequent inclusion invalidations.
	randomWorkload(t, vrMk, func(o *Options) {
		o.L2 = cache.Geometry{Size: 128, Block: 32, Assoc: 2}
	}, 2, 2000, true)
}

func TestRandomRR(t *testing.T) {
	randomWorkload(t, rrMk, nil, 4, 4000, true)
}

func TestRandomNoInclusion(t *testing.T) {
	randomWorkload(t, niMk, nil, 4, 4000, true)
}

func TestRandomNoInclusionTinyL2(t *testing.T) {
	randomWorkload(t, niMk, func(o *Options) {
		o.L2 = cache.Geometry{Size: 128, Block: 32, Assoc: 2}
	}, 2, 2000, true)
}
