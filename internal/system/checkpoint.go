package system

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/addr"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/memory"
	"repro/internal/trace"
	"repro/internal/vm"
)

// OracleEntry is one sequential-consistency oracle binding's serializable
// form.
type OracleEntry struct {
	PA    addr.PAddr
	Token uint64
}

// MachineState is the whole machine's serializable state: everything a
// restored system needs to continue a run byte-for-byte identically —
// caches, TLBs, buffers, page tables, memory tokens, the token source, all
// statistics, cycle clocks and the consistency oracle.
type MachineState struct {
	Refs   uint64
	Tokens uint64

	MMU    vm.State
	Memory memory.State
	Bus    bus.Stats
	Cycles *cycles.State // nil when timing is disabled
	Oracle []OracleEntry // nil when the oracle is disabled

	CPUs []*core.HierarchyState
}

// ExportState captures the machine. It refuses machines with an attached
// probe or a periodic auditor: both carry internal cursors (ring positions,
// countdowns, window boundaries) that are not serialized, so a restored run
// would diverge in its observability output. Final-only auditing
// (audit.New(0)) is fine — it holds no mid-run state, and a probe marked
// Config.ProbeEphemeral is accepted because its caller has opted into the
// observability reset.
func (s *System) ExportState() (*MachineState, error) {
	if s.cfg.Probe != nil && !s.cfg.ProbeEphemeral {
		return nil, fmt.Errorf("system: cannot checkpoint a machine with an attached probe")
	}
	if s.aud != nil && s.aud.Every() != 0 {
		return nil, fmt.Errorf("system: cannot checkpoint a machine with a periodic auditor (period %d)", s.aud.Every())
	}
	st := &MachineState{
		Refs:   s.refs,
		Tokens: s.tokens.Last(),
		MMU:    s.mmu.ExportState(),
		Memory: s.mem.ExportState(),
		Bus:    s.bus.Stats(),
	}
	if s.cfg.Cycles != nil {
		cs := s.cfg.Cycles.ExportState()
		st.Cycles = &cs
	}
	if s.oracle != nil {
		st.Oracle = make([]OracleEntry, 0, len(s.oracle))
		for pa, tok := range s.oracle {
			st.Oracle = append(st.Oracle, OracleEntry{PA: pa, Token: tok})
		}
		sort.Slice(st.Oracle, func(i, j int) bool { return st.Oracle[i].PA < st.Oracle[j].PA })
	}
	for _, h := range s.cpus {
		st.CPUs = append(st.CPUs, h.ExportState())
	}
	return st, nil
}

// RestoreState replaces the machine's state with st. The receiving system
// must have been built from the same Config as the exporter; mismatches the
// component validators can detect are errors, the rest silently corrupt the
// simulation (callers should validate a configuration signature first, as
// internal/checkpoint does).
func (s *System) RestoreState(st *MachineState) error {
	if s.cfg.Probe != nil && !s.cfg.ProbeEphemeral {
		return fmt.Errorf("system: cannot restore into a machine with an attached probe")
	}
	if s.aud != nil && s.aud.Every() != 0 {
		return fmt.Errorf("system: cannot restore into a machine with a periodic auditor")
	}
	if len(st.CPUs) != len(s.cpus) {
		return fmt.Errorf("system: state has %d CPUs, machine has %d", len(st.CPUs), len(s.cpus))
	}
	if (st.Cycles != nil) != (s.cfg.Cycles != nil) {
		return fmt.Errorf("system: state and machine disagree about cycle timing")
	}
	if err := s.mmu.RestoreState(st.MMU); err != nil {
		return err
	}
	if err := s.mem.RestoreState(st.Memory); err != nil {
		return err
	}
	if st.Cycles != nil {
		if err := s.cfg.Cycles.RestoreState(*st.Cycles); err != nil {
			return err
		}
	}
	for i, h := range s.cpus {
		if err := h.RestoreState(st.CPUs[i]); err != nil {
			return fmt.Errorf("system: cpu %d: %w", i, err)
		}
	}
	s.bus.RestoreStats(st.Bus)
	s.tokens.RestoreLast(st.Tokens)
	s.refs = st.Refs
	if s.oracle != nil {
		oracle := make(map[addr.PAddr]uint64, len(st.Oracle))
		for _, e := range st.Oracle {
			oracle[e.PA] = e.Token
		}
		s.oracle = oracle
	}
	return nil
}

// RunRecords drives exactly n records (memory references and context
// switches both count) from r through the machine, without draining. It
// returns the number of records actually applied, which is short only when
// the trace ends first.
func (s *System) RunRecords(r trace.Reader, n uint64) (uint64, error) {
	var done uint64
	buf := make([]trace.Ref, runBatchSize)
	for done < n {
		want := n - done
		if want > uint64(len(buf)) {
			want = uint64(len(buf))
		}
		got, err := trace.FillBatch(r, buf[:want])
		if aerr := s.ApplyBatch(buf[:got]); aerr != nil {
			return done, aerr
		}
		done += uint64(got)
		if errors.Is(err, io.EOF) {
			return done, nil
		}
		if err != nil {
			return done, err
		}
	}
	return done, nil
}
