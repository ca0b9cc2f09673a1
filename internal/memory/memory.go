// Package memory models main memory for the simulator. Rather than bytes it
// stores one token per minimum-block-sized chunk; the system stamps a fresh
// token on every processor write, which gives the test suite a
// sequential-consistency oracle: any read must observe the newest token for
// its physical block, so coherence, synonym or write-buffer bugs surface as
// token mismatches.
package memory

import (
	"fmt"
	"sort"

	"repro/internal/addr"
)

// Stats counts memory traffic in minimum-block units.
type Stats struct {
	BlockReads  uint64 // blocks read by caches (misses reaching memory)
	BlockWrites uint64 // blocks written back to memory
}

// Memory is the shared main memory. The zero token means "never written".
type Memory struct {
	block addr.BlockGeom
	data  map[uint64]uint64 // block number -> token
	stats Stats
}

// New creates a memory tracking tokens at the given block granularity,
// which should be the smallest cache block size in the system.
func New(blockSize uint64) (*Memory, error) {
	g, err := addr.NewBlockGeom(blockSize)
	if err != nil {
		return nil, err
	}
	return &Memory{block: g, data: make(map[uint64]uint64)}, nil
}

// MustNew is New but panics on error.
func MustNew(blockSize uint64) *Memory {
	m, err := New(blockSize)
	if err != nil {
		panic(err)
	}
	return m
}

// Granularity returns the tracked block size in bytes.
func (m *Memory) Granularity() uint64 { return m.block.Size() }

// Stats returns a copy of the traffic counters.
func (m *Memory) Stats() Stats { return m.stats }

// ResetStats zeroes the traffic counters (steady-state measurement); the
// stored data is untouched.
func (m *Memory) ResetStats() { m.stats = Stats{} }

// Read returns the token for pa's block and counts one block read.
func (m *Memory) Read(pa addr.PAddr) uint64 {
	m.stats.BlockReads++
	return m.data[m.block.PBlock(pa)]
}

// Peek returns the token for pa's block without counting traffic (for
// oracle checks and diagnostics).
func (m *Memory) Peek(pa addr.PAddr) uint64 {
	return m.data[m.block.PBlock(pa)]
}

// Write stores a token for pa's block and counts one block write.
func (m *Memory) Write(pa addr.PAddr, token uint64) {
	m.stats.BlockWrites++
	m.data[m.block.PBlock(pa)] = token
}

// BlocksWritten returns the number of distinct blocks ever written, for
// tests.
func (m *Memory) BlocksWritten() int { return len(m.data) }

// BlockToken is one written block's serializable form.
type BlockToken struct {
	Block uint64
	Token uint64
}

// State is the memory's serializable state (checkpoint support), sorted by
// block number so identical memories export identical states.
type State struct {
	Stats  Stats
	Blocks []BlockToken
}

// ExportState captures the token store and counters.
func (m *Memory) ExportState() State {
	st := State{Stats: m.stats, Blocks: make([]BlockToken, 0, len(m.data))}
	for b, t := range m.data {
		st.Blocks = append(st.Blocks, BlockToken{Block: b, Token: t})
	}
	sort.Slice(st.Blocks, func(i, j int) bool { return st.Blocks[i].Block < st.Blocks[j].Block })
	return st
}

// RestoreState replaces the token store and counters. Duplicate block
// numbers are rejected.
func (m *Memory) RestoreState(st State) error {
	data := make(map[uint64]uint64, len(st.Blocks))
	for _, bt := range st.Blocks {
		if _, dup := data[bt.Block]; dup {
			return fmt.Errorf("memory: state repeats block %d", bt.Block)
		}
		data[bt.Block] = bt.Token
	}
	m.stats = st.Stats
	m.data = data
	return nil
}
