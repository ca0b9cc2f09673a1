package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cycles"
	"repro/internal/probe"
	"repro/internal/system"
	"repro/internal/trace"
)

func runSmall(t *testing.T) (*system.System, system.Config) {
	t.Helper()
	cfg := system.Config{
		CPUs:         2,
		Organization: system.VR,
		PageSize:     64,
		L1:           cache.Geometry{Size: 128, Block: 16, Assoc: 1},
		L2:           cache.Geometry{Size: 512, Block: 32, Assoc: 2},
	}
	sys, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := []trace.Ref{
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x000},
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x004},
		{CPU: 0, Kind: trace.Write, PID: 1, Addr: 0x000},
		{CPU: 1, Kind: trace.IFetch, PID: 2, Addr: 0x100},
		{CPU: 0, Kind: trace.CtxSwitch, PID: 3},
	}
	if err := sys.Run(trace.NewSliceReader(refs)); err != nil {
		t.Fatal(err)
	}
	return sys, cfg
}

func TestFromSystem(t *testing.T) {
	sys, cfg := runSmall(t)
	r := FromSystem(sys, cfg)
	if r.Machine.Organization != "VR" || r.Machine.CPUs != 2 {
		t.Errorf("machine = %+v", r.Machine)
	}
	if r.Machine.L1 != "128/16B/1-way" {
		t.Errorf("L1 label = %q", r.Machine.L1)
	}
	if r.Machine.Protocol != "write-invalidate" {
		t.Errorf("protocol = %q", r.Machine.Protocol)
	}
	if r.Refs != 4 {
		t.Errorf("refs = %d", r.Refs)
	}
	if r.L1.Overall != 0.5 {
		t.Errorf("h1 = %v, want 0.5", r.L1.Overall)
	}
	if len(r.PerCPU) != 2 {
		t.Fatalf("perCPU = %d entries", len(r.PerCPU))
	}
	if r.PerCPU[0].CtxSwitches != 1 {
		t.Error("cpu0 context switch not recorded")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sys, cfg := runSmall(t)
	r := FromSystem(sys, cfg)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"organization": "VR"`, `"references": 4`, `"perCPU"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
	back, err := ParseJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Error("JSON round trip lost data")
	}
}

func TestTimingSection(t *testing.T) {
	cfg := system.Config{
		CPUs:         2,
		Organization: system.VR,
		PageSize:     64,
		L1:           cache.Geometry{Size: 128, Block: 16, Assoc: 1},
		L2:           cache.Geometry{Size: 512, Block: 32, Assoc: 2},
		Cycles:       cycles.MustNew(cycles.ContentionParams(), nil),
	}
	sys, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := []trace.Ref{
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x000},
		{CPU: 1, Kind: trace.Read, PID: 2, Addr: 0x100},
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x000},
	}
	if err := sys.Run(trace.NewSliceReader(refs)); err != nil {
		t.Fatal(err)
	}
	r := FromSystem(sys, cfg)
	if r.Timing == nil {
		t.Fatal("timing section missing with an engine attached")
	}
	if r.Timing.Refs != 3 {
		t.Errorf("timed refs = %d, want 3", r.Timing.Refs)
	}
	if r.Timing.Tacc <= 0 {
		t.Errorf("measured Tacc = %v, want > 0", r.Timing.Tacc)
	}
	if len(r.Timing.PerCPU) != 2 {
		t.Fatalf("timing perCPU = %d entries", len(r.Timing.PerCPU))
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"timing"`) {
		t.Error("JSON missing timing section")
	}
	back, err := ParseJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Error("JSON round trip lost timing data")
	}
}

func TestNoTimingOmitted(t *testing.T) {
	sys, cfg := runSmall(t)
	r := FromSystem(sys, cfg)
	if r.Timing != nil {
		t.Fatal("timing section present without an engine")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"timing"`) {
		t.Error("JSON has timing section without an engine")
	}
}

func TestProbeSection(t *testing.T) {
	cfg := system.Config{
		CPUs:         1,
		Organization: system.VR,
		PageSize:     64,
		L1:           cache.Geometry{Size: 128, Block: 16, Assoc: 1},
		L2:           cache.Geometry{Size: 512, Block: 32, Assoc: 2},
		Probe:        probe.New(),
	}
	windows := probe.NewWindows(2)
	cfg.Probe.AddSink(windows)
	sys, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := []trace.Ref{
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x000},
		{CPU: 0, Kind: trace.Read, PID: 1, Addr: 0x004},
		{CPU: 0, Kind: trace.Write, PID: 1, Addr: 0x010},
	}
	if err := sys.Run(trace.NewSliceReader(refs)); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Probe.Close(); err != nil {
		t.Fatal(err)
	}
	r := FromSystem(sys, cfg)
	r.AddWindows(windows.Done())
	if r.Probe == nil {
		t.Fatal("probe section missing")
	}
	if got := r.Probe.Events["l1-hit"]; got != 1 {
		t.Errorf("l1-hit events = %d, want 1", got)
	}
	if got := r.Probe.Events["l1-miss"]; got != 2 {
		t.Errorf("l1-miss events = %d, want 2", got)
	}
	if len(r.Probe.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(r.Probe.Windows))
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"probe"`, `"events"`, `"l1-hit": 1`, `"windows"`, `"firstRef": 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
	back, err := ParseJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Error("probe section lost in JSON round trip")
	}
}

func TestNoProbeOmitted(t *testing.T) {
	sys, cfg := runSmall(t)
	r := FromSystem(sys, cfg)
	if r.Probe != nil {
		t.Error("probe section present without a probe")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"probe"`) {
		t.Error("probe key present in JSON without a probe")
	}
}

func TestParseJSONError(t *testing.T) {
	if _, err := ParseJSON(strings.NewReader("{bogus")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestOptionFlagsSurface(t *testing.T) {
	cfg := system.Config{
		CPUs:           1,
		Organization:   system.VR,
		PageSize:       64,
		L1:             cache.Geometry{Size: 128, Block: 16, Assoc: 1},
		L2:             cache.Geometry{Size: 512, Block: 32, Assoc: 2},
		L1WriteThrough: true,
	}
	sys, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := FromSystem(sys, cfg)
	if !r.Machine.WriteThrough {
		t.Error("write-through flag not surfaced")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"writeThrough": true`) {
		t.Error("writeThrough missing from JSON")
	}
}
