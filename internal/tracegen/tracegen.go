// Package tracegen synthesizes multiprocessor memory-reference traces with
// the workload properties the paper's evaluation depends on, standing in
// for the unavailable ATUM VAX traces (pops, thor, abaqus):
//
//   - temporal locality from an LRU-stack-distance model with a power-law
//     tail, so hit ratios scale with cache size the way real programs' do;
//   - spatial locality from sequential instruction runs;
//   - procedure calls that emit bursts of stack writes, reproducing the
//     paper's Table 1 (writes per call) and Table 2 (short inter-write
//     intervals);
//   - scheduled context switches between the processes sharing each CPU;
//   - a shared segment mapped by every process at a process-specific
//     virtual base, generating both cache-coherence traffic and synonyms.
//
// Generators are deterministic for a given configuration and seed.
package tracegen

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Config describes a synthetic workload. All byte quantities should be
// multiples of the page size.
type Config struct {
	Name      string
	CPUs      int
	TotalRefs int   // memory references to emit (context switches excluded)
	Seed      int64 //
	PageSize  uint64

	// Reference mix; the three fractions should sum to 1.
	InstrFrac float64
	ReadFrac  float64
	WriteFrac float64

	// Scheduling.
	ProcsPerCPU       int // processes rotating on each CPU (default 1)
	CtxSwitchInterval int // per-CPU references between switches (0 = never)

	// Locality. Alpha is the Pareto tail exponent of the LRU stack-distance
	// distribution (smaller = heavier tail = worse locality); WorkingSet
	// bounds the hot block list per process and stream, in blocks.
	CodeAlpha, DataAlpha           float64
	CodeWorkingSet, DataWorkingSet int
	SeqRunProb                     float64 // chance an ifetch continues sequentially
	PrivateRegionPages             int     // private data region size per process

	// Procedure calls.
	CallProb     float64 // chance an ifetch is a call
	BurstWeights []BurstWeight
	StackPages   int // per-process stack region size

	// Sharing.
	SharedPages     int     // size of the global shared segment
	SharedFrac      float64 // fraction of data refs that target it
	SharedWriteFrac float64 // fraction of shared refs that are writes
	SharedHotBlocks int     // per-process hot set within the segment
}

// BurstWeight gives the relative frequency of a call writing N words.
type BurstWeight struct {
	Writes int
	Weight float64
}

// block size used for locality bookkeeping; matches the smallest cache
// blocks the paper evaluates.
const genBlock = 16

// wordSize is the reference granularity within a block.
const wordSize = 4

func (c *Config) applyDefaults() {
	if c.CPUs == 0 {
		c.CPUs = 1
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.ProcsPerCPU == 0 {
		c.ProcsPerCPU = 1
	}
	if c.CodeAlpha == 0 {
		c.CodeAlpha = 0.75
	}
	if c.DataAlpha == 0 {
		c.DataAlpha = 0.55
	}
	if c.CodeWorkingSet == 0 {
		c.CodeWorkingSet = 4096
	}
	if c.DataWorkingSet == 0 {
		c.DataWorkingSet = 8192
	}
	if c.SeqRunProb == 0 {
		c.SeqRunProb = 0.8
	}
	if c.PrivateRegionPages == 0 {
		c.PrivateRegionPages = 512
	}
	if c.StackPages == 0 {
		c.StackPages = 8
	}
	if c.SharedHotBlocks == 0 {
		c.SharedHotBlocks = 64
	}
	if len(c.BurstWeights) == 0 {
		c.BurstWeights = DefaultBurstWeights()
	}
}

// Validate rejects inconsistent configurations.
func (c *Config) Validate() error {
	if c.TotalRefs < 0 {
		return fmt.Errorf("tracegen: negative TotalRefs")
	}
	if c.CPUs < 1 || c.CPUs > 15 {
		return fmt.Errorf("tracegen: CPUs %d out of range [1,15]", c.CPUs)
	}
	if !addr.IsPow2(c.PageSize) {
		return fmt.Errorf("tracegen: page size %d not a power of two", c.PageSize)
	}
	sum := c.InstrFrac + c.ReadFrac + c.WriteFrac
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("tracegen: reference mix sums to %v, want 1", sum)
	}
	if c.SharedFrac < 0 || c.SharedFrac > 1 || c.SharedWriteFrac < 0 || c.SharedWriteFrac > 1 {
		return fmt.Errorf("tracegen: sharing fractions out of range")
	}
	return nil
}

// DefaultBurstWeights reproduces the shape of the paper's Table 1: calls
// overwhelmingly write 6-12 words, peaked at 6 and 9, with a rare 16.
func DefaultBurstWeights() []BurstWeight {
	return []BurstWeight{
		{6, 0.37}, {7, 0.11}, {8, 0.11}, {9, 0.24},
		{10, 0.07}, {11, 0.05}, {12, 0.04}, {16, 0.01},
	}
}

// Virtual address space layout per process (block-aligned regions):
//
//	code    at 0x0100_0000
//	stack   at 0x7000_0000 (grows down from the top of the region)
//	data    at 0x2000_0000
//	shared  at 0x4000_0000 + pid * sharedStride
const (
	codeBase   = 0x0100_0000
	dataBase   = 0x2000_0000
	sharedVA   = 0x4000_0000
	stackBase  = 0x7000_0000
	sharedStep = 0x0100_0000 // per-PID offset; distinct bases create synonyms
)

// SharedBase returns the virtual base at which process pid maps the shared
// segment. Bases differ per process so that the same physical data appears
// under different virtual addresses — the synonym source.
func (c *Config) SharedBase(pid addr.PID) addr.VAddr {
	return addr.VAddr(sharedVA + uint64(pid)*sharedStep)
}

// PIDFor returns the process ids scheduled on a CPU, in rotation order.
func (c *Config) PIDFor(cpu, slot int) addr.PID {
	return addr.PID(cpu*c.ProcsPerCPU + slot + 1)
}

// NumProcs returns the total number of processes in the workload.
func (c *Config) NumProcs() int { return c.CPUs * c.ProcsPerCPU }

// MaxRecords bounds the records a generator for c emits: its TotalRefs
// memory references and, where processes rotate, at most one context
// switch per CtxSwitchInterval of them.
func (c *Config) MaxRecords() int {
	if c.CtxSwitchInterval > 0 && c.ProcsPerCPU > 1 {
		return c.TotalRefs + c.TotalRefs/c.CtxSwitchInterval
	}
	return c.TotalRefs
}

// SetupSharedMappings maps the shared segment into every process's address
// space. Both the generator and any simulator replaying a saved trace must
// apply it to the same MMU layout.
func (c *Config) SetupSharedMappings(mmu *vm.MMU) error {
	cc := *c
	cc.applyDefaults()
	if cc.SharedPages == 0 {
		return nil
	}
	seg := mmu.NewSegment(uint64(cc.SharedPages) * cc.PageSize)
	for cpu := 0; cpu < cc.CPUs; cpu++ {
		for slot := 0; slot < cc.ProcsPerCPU; slot++ {
			pid := cc.PIDFor(cpu, slot)
			if err := mmu.MapShared(pid, cc.SharedBase(pid), seg); err != nil {
				return err
			}
		}
	}
	return nil
}

// Signature returns a stable fingerprint of the (default-applied)
// configuration. Checkpoints store it so a restore can verify it is
// resuming the same deterministic workload the checkpoint came from.
func (c *Config) Signature() string {
	cc := *c
	cc.applyDefaults()
	return fmt.Sprintf("tracegen/v1:%+v", cc)
}

// mtfStack is an approximate LRU stack of block numbers (most recent
// first), the substrate of the stack-distance locality model.
type mtfStack struct {
	blocks []uint64
	max    int
}

func (s *mtfStack) touch(d int) uint64 {
	b := s.blocks[d]
	copy(s.blocks[1:d+1], s.blocks[:d])
	s.blocks[0] = b
	return b
}

func (s *mtfStack) push(b uint64) {
	if len(s.blocks) < s.max {
		s.blocks = append(s.blocks, 0)
	}
	copy(s.blocks[1:], s.blocks)
	s.blocks[0] = b
}

// stream is one locality-modelled reference stream (code, data or shared).
type stream struct {
	hot    mtfStack
	alpha  float64
	base   addr.VAddr
	blocks uint64 // region size in blocks
}

func newStream(base addr.VAddr, bytes uint64, ws int, alpha float64) *stream {
	return &stream{
		hot:    mtfStack{max: ws},
		alpha:  alpha,
		base:   base,
		blocks: bytes / genBlock,
	}
}

// next returns the next block address of the stream: a Pareto-distributed
// LRU stack depth when it lands inside the hot list, otherwise a uniform
// cold block from the region.
func (s *stream) next(rng *rand.Rand) addr.VAddr {
	d := int(math.Pow(rng.Float64(), -1/s.alpha)) - 1
	var b uint64
	if d < len(s.hot.blocks) {
		b = s.hot.touch(d)
	} else {
		b = rng.Uint64() % s.blocks
		s.hot.push(b)
	}
	return s.base + addr.VAddr(b*genBlock+uint64(rng.Intn(genBlock/wordSize))*wordSize)
}

// process is the mutable state of one simulated process.
type process struct {
	pid  addr.PID
	code *stream
	data *stream
	pc   addr.VAddr
	sp   addr.VAddr
}

// cpuState drives one processor's reference stream.
type cpuState struct {
	procs    []*process
	cur      int
	rng      *rand.Rand
	pending  []trace.Ref // write burst, last ref first: popping the end reuses one array
	sinceCtx int
	needsCtx bool
}

// Generator produces the trace; it implements trace.Reader.
type Generator struct {
	cfg     Config
	cpus    []*cpuState
	emitted int
	nextCPU int

	writesPerCall *stats.Histogram
	chars         trace.Characteristics
}

// New builds a generator. Call Config.SetupSharedMappings on the target
// system's MMU before running the trace when SharedPages > 0.
func New(cfg Config) (*Generator, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:           cfg,
		writesPerCall: stats.NewHistogram("writes-per-call", 17),
	}
	for cpu := 0; cpu < cfg.CPUs; cpu++ {
		cs := &cpuState{rng: rand.New(rand.NewSource(cfg.Seed + int64(cpu)*7919))}
		for slot := 0; slot < cfg.ProcsPerCPU; slot++ {
			pid := cfg.PIDFor(cpu, slot)
			p := &process{
				pid:  pid,
				code: newStream(codeBase, uint64(cfg.CodeWorkingSet)*genBlock*4, cfg.CodeWorkingSet, cfg.CodeAlpha),
				data: newStream(dataBase, uint64(cfg.PrivateRegionPages)*cfg.PageSize, cfg.DataWorkingSet, cfg.DataAlpha),
				pc:   codeBase,
				sp:   stackBase + addr.VAddr(cfg.StackPages)*addr.VAddr(cfg.PageSize),
			}
			cs.procs = append(cs.procs, p)
		}
		g.cpus = append(g.cpus, cs)
	}
	return g, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Generator {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Config returns the generator's (default-applied) configuration.
func (g *Generator) Config() Config { return g.cfg }

// WritesPerCall returns the Table 1 histogram of the trace generated so
// far.
func (g *Generator) WritesPerCall() *stats.Histogram { return g.writesPerCall }

// Characteristics returns the Table 5 summary of the trace generated so
// far.
func (g *Generator) Characteristics() trace.Characteristics { return g.chars }

// Next implements trace.Reader. CPUs are interleaved round-robin;
// context-switch records are emitted in-band and do not count against
// TotalRefs.
func (g *Generator) Next() (trace.Ref, error) {
	if g.emitted >= g.cfg.TotalRefs {
		return trace.Ref{}, io.EOF
	}
	cpu := g.nextCPU
	g.nextCPU = (g.nextCPU + 1) % g.cfg.CPUs
	cs := g.cpus[cpu]

	if cs.needsCtx {
		cs.needsCtx = false
		cs.sinceCtx = 0
		cs.cur = (cs.cur + 1) % len(cs.procs)
		ref := trace.Ref{CPU: uint8(cpu), Kind: trace.CtxSwitch, PID: cs.procs[cs.cur].pid}
		g.chars.Observe(ref)
		return ref, nil
	}

	ref := g.genRef(cpu, cs)
	g.emitted++
	cs.sinceCtx++
	if g.cfg.CtxSwitchInterval > 0 && len(cs.procs) > 1 && cs.sinceCtx >= g.cfg.CtxSwitchInterval {
		cs.needsCtx = true
	}
	g.chars.Observe(ref)
	return ref, nil
}

// ReadBatch implements trace.BatchReader: it fills dst with successive
// records, amortizing the per-record interface dispatch when the generator
// feeds the sweep engine's broadcast loop.
func (g *Generator) ReadBatch(dst []trace.Ref) (int, error) {
	n := 0
	for n < len(dst) {
		ref, err := g.Next()
		if err != nil {
			if errors.Is(err, io.EOF) && n > 0 {
				return n, nil
			}
			return n, err
		}
		dst[n] = ref
		n++
	}
	return n, nil
}

func (g *Generator) genRef(cpu int, cs *cpuState) trace.Ref {
	if n := len(cs.pending); n > 0 {
		ref := cs.pending[n-1]
		cs.pending = cs.pending[:n-1]
		return ref
	}
	p := cs.procs[cs.cur]
	rng := cs.rng
	r := rng.Float64()
	switch {
	case r < g.cfg.InstrFrac:
		return g.genInstr(cpu, cs, p)
	case r < g.cfg.InstrFrac+g.cfg.WriteFrac:
		return g.genData(cpu, p, rng, true)
	default:
		return g.genData(cpu, p, rng, false)
	}
}

// genInstr advances the PC: usually sequentially, sometimes jumping via the
// code locality model, occasionally calling (which queues a stack write
// burst).
func (g *Generator) genInstr(cpu int, cs *cpuState, p *process) trace.Ref {
	rng := cs.rng
	switch {
	case rng.Float64() < g.cfg.CallProb:
		// Call: jump far, push a frame of writes.
		p.pc = p.code.next(rng)
		n := g.burstSize(rng)
		g.writesPerCall.Observe(n)
		frame := addr.VAddr(((n*wordSize)/genBlock + 1) * genBlock)
		if p.sp < stackBase+frame {
			p.sp = stackBase + addr.VAddr(g.cfg.StackPages)*addr.VAddr(g.cfg.PageSize)
		}
		p.sp -= frame
		for i := n - 1; i >= 0; i-- {
			cs.pending = append(cs.pending, trace.Ref{
				CPU:  uint8(cpu),
				Kind: trace.Write,
				PID:  p.pid,
				Addr: p.sp + addr.VAddr(i*wordSize),
			})
		}
	case rng.Float64() < g.cfg.SeqRunProb:
		p.pc += wordSize
	default:
		p.pc = p.code.next(rng)
	}
	return trace.Ref{CPU: uint8(cpu), Kind: trace.IFetch, PID: p.pid, Addr: p.pc}
}

func (g *Generator) genData(cpu int, p *process, rng *rand.Rand, write bool) trace.Ref {
	kind := trace.Read
	if write {
		kind = trace.Write
	}
	var va addr.VAddr
	if g.cfg.SharedPages > 0 && rng.Float64() < g.cfg.SharedFrac {
		va = g.sharedRef(p, rng)
		if rng.Float64() < g.cfg.SharedWriteFrac {
			kind = trace.Write
		} else {
			kind = trace.Read
		}
	} else {
		va = p.data.next(rng)
	}
	return trace.Ref{CPU: uint8(cpu), Kind: kind, PID: p.pid, Addr: va}
}

// sharedRef picks a block of the shared segment. The hot set is global —
// every process contends on the same first SharedHotBlocks blocks — so
// read/write sharing actually collides across CPUs, generating the
// invalidation and flush traffic of Tables 11-13. The cold remainder of
// the segment models bulk shared data.
func (g *Generator) sharedRef(p *process, rng *rand.Rand) addr.VAddr {
	totalBlocks := uint64(g.cfg.SharedPages) * g.cfg.PageSize / genBlock
	var b uint64
	if rng.Float64() < 0.85 {
		hot := uint64(g.cfg.SharedHotBlocks)
		if hot > totalBlocks {
			hot = totalBlocks
		}
		b = rng.Uint64() % hot
	} else {
		b = rng.Uint64() % totalBlocks
	}
	return g.cfg.SharedBase(p.pid) + addr.VAddr(b*genBlock+uint64(rng.Intn(genBlock/wordSize))*wordSize)
}

func (g *Generator) burstSize(rng *rand.Rand) int {
	var total float64
	for _, w := range g.cfg.BurstWeights {
		total += w.Weight
	}
	r := rng.Float64() * total
	for _, w := range g.cfg.BurstWeights {
		r -= w.Weight
		if r <= 0 {
			return w.Writes
		}
	}
	return g.cfg.BurstWeights[len(g.cfg.BurstWeights)-1].Writes
}
