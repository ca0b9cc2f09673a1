package system

import (
	"testing"

	"repro/internal/trace"
)

func TestDMAWriteInvalidatesCaches(t *testing.T) {
	s := MustNew(smallConfig(VR))
	// CPU 0 caches a block.
	res, err := s.Apply(trace.Ref{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x100})
	if err != nil {
		t.Fatal(err)
	}
	pa := res.PA
	// Device writes the same physical block.
	dma := s.NewDMA()
	want := dma.WriteBlock(pa)
	// The CPU's next read must miss and observe the device's data.
	got, err := s.Apply(trace.Ref{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x100})
	if err != nil {
		t.Fatal(err)
	}
	if got.L1Hit {
		t.Error("stale cached copy survived the DMA write")
	}
	if got.Token != want {
		t.Errorf("CPU read token %d, want device's %d", got.Token, want)
	}
	auditClean(t, s)
}

func TestDMAReadFlushesDirtyCopy(t *testing.T) {
	s := MustNew(smallConfig(VR))
	res, err := s.Apply(trace.Ref{CPU: 0, Kind: trace.Write, PID: 1, Addr: 0x200})
	if err != nil {
		t.Fatal(err)
	}
	dma := s.NewDMA()
	got, err := dma.ReadBlock(res.PA)
	if err != nil {
		t.Fatal(err)
	}
	if got != res.Token {
		t.Errorf("device read %d, want CPU's dirty data %d", got, res.Token)
	}
	// The CPU keeps a now-clean copy.
	again, err := s.Apply(trace.Ref{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x200})
	if err != nil {
		t.Fatal(err)
	}
	if !again.L1Hit || again.Token != res.Token {
		t.Errorf("CPU copy damaged by device read: %+v", again)
	}
	auditClean(t, s)
}

func TestDMAWritePreservesUnrelatedDirtySub(t *testing.T) {
	// An L2 line spans two L1 blocks. The CPU dirties one sub-block; the
	// device writes the *other*. The invalidation of the shared L2 line
	// must not lose the CPU's dirty data (it is flushed to memory first).
	s := MustNew(smallConfig(VR))
	w, err := s.Apply(trace.Ref{CPU: 0, Kind: trace.Write, PID: 1, Addr: 0x100})
	if err != nil {
		t.Fatal(err)
	}
	dma := s.NewDMA()
	// The sibling sub-block within the same 32B L2 line.
	sibling := w.PA ^ 0x10
	dma.WriteBlock(sibling)
	got, err := s.Apply(trace.Ref{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x100})
	if err != nil {
		t.Fatal(err)
	}
	if got.Token != w.Token {
		t.Errorf("unrelated dirty sub lost: read %d, want %d", got.Token, w.Token)
	}
	auditClean(t, s)
}

func TestDMATransfers(t *testing.T) {
	s := MustNew(smallConfig(VR))
	dma := s.NewDMA()
	if n := dma.TransferIn(0x400, 64); n != 4 {
		t.Errorf("TransferIn wrote %d blocks, want 4", n)
	}
	n, err := dma.TransferOut(0x400, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("TransferOut read %d blocks, want 4", n)
	}
	st := dma.Stats()
	if st.Writes != 4 || st.Reads != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDMAWithAllOrganizations(t *testing.T) {
	for _, org := range []Organization{VR, RRInclusion, RRNoInclusion} {
		s := MustNew(smallConfig(org))
		w, err := s.Apply(trace.Ref{CPU: 0, Kind: trace.Write, PID: 1, Addr: 0x300})
		if err != nil {
			t.Fatal(err)
		}
		dma := s.NewDMA()
		got, err := dma.ReadBlock(w.PA)
		if err != nil {
			t.Fatalf("%v: %v", org, err)
		}
		if got != w.Token {
			t.Errorf("%v: device read %d, want %d", org, got, w.Token)
		}
		devTok := dma.WriteBlock(w.PA)
		back, err := s.Apply(trace.Ref{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x300})
		if err != nil {
			t.Fatal(err)
		}
		if back.Token != devTok {
			t.Errorf("%v: CPU read %d after DMA write, want %d", org, back.Token, devTok)
		}
		auditClean(t, s)
	}
}

func TestDMAInterleavedWithWorkload(t *testing.T) {
	s := MustNew(smallConfig(VR))
	dma := s.NewDMA()
	// Interleave CPU traffic and device traffic over one page of physical
	// memory; the oracle (enabled in smallConfig) checks every read.
	for i := 0; i < 200; i++ {
		cpu := uint8(i % 2)
		ref := trace.Ref{CPU: cpu, Kind: trace.Write, PID: 1, Addr: 0x100}
		if cpu == 1 {
			ref.PID = 2
			ref.Kind = trace.Read
			ref.Addr = 0x500
		}
		res, err := s.Apply(ref)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			dma.WriteBlock(res.PA)
		}
		if i%7 == 0 {
			if _, err := dma.ReadBlock(res.PA); err != nil {
				t.Fatal(err)
			}
		}
	}
	if vs := s.AuditSnapshot().Check(); len(vs) != 0 {
		t.Fatalf("audit violations after DMA traffic: %v", vs)
	}
	auditClean(t, s)
}
