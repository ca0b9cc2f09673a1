package probe

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// collect is a sink recording every delivered event.
type collect struct{ evs []Event }

func (c *collect) Event(ev Event) { c.evs = append(c.evs, ev) }

func TestNilProbeIsSafe(t *testing.T) {
	var p *Probe
	p.Emit(Event{Kind: EvL1Hit})
	p.AdvanceRef()
	p.AddSink(&collect{})
	if p.Enabled() {
		t.Error("nil probe reports enabled")
	}
	if p.Counts().Total() != 0 || p.Ref() != 0 {
		t.Error("nil probe has state")
	}
	if err := p.Close(); err != nil {
		t.Error(err)
	}
}

func TestEmitStampsAndCounts(t *testing.T) {
	p := New()
	sink := &collect{}
	p.AddSink(sink)
	p.AdvanceRef()
	p.Emit(Event{CPU: 0, Kind: EvL1Miss, Access: stats.KindRead})
	p.Emit(Event{CPU: 1, Kind: EvL2Hit, Access: stats.KindRead})
	p.AdvanceRef()
	p.Emit(Event{CPU: 0, Kind: EvL1Hit, Access: stats.KindWrite})
	if len(sink.evs) != 3 {
		t.Fatalf("delivered %d events, want 3", len(sink.evs))
	}
	for i, ev := range sink.evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if sink.evs[0].Ref != 1 || sink.evs[2].Ref != 2 {
		t.Errorf("refs = %d, %d; want 1, 2", sink.evs[0].Ref, sink.evs[2].Ref)
	}
	c := p.Counts()
	if c.Of(EvL1Miss) != 1 || c.Of(EvL2Hit) != 1 || c.Of(EvL1Hit) != 1 || c.Total() != 3 {
		t.Errorf("counts = %v", c.Map())
	}
}

func TestRingOverflowFlushesInOrder(t *testing.T) {
	p := New()
	sink := &collect{}
	p.AddSink(sink)
	// Interleave two CPUs: delivery follows emission order, not CPU.
	for i := 0; i < 100; i++ {
		p.Emit(Event{CPU: i % 2, Kind: EvBusRead})
	}
	if len(sink.evs) != 100 {
		t.Fatalf("delivered %d events, want 100", len(sink.evs))
	}
	for i, ev := range sink.evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d out of order: seq %d", i, ev.Seq)
		}
	}
}

func TestWindows(t *testing.T) {
	w := NewWindows(10)
	var closed []WindowMetrics
	w.OnClose = func(m WindowMetrics) { closed = append(closed, m) }
	for ref := uint64(1); ref <= 25; ref++ {
		hit := ref%2 == 0
		k := EvL1Miss
		if hit {
			k = EvL1Hit
		}
		w.Event(Event{Ref: ref, Kind: k})
		if !hit {
			w.Event(Event{Ref: ref, Kind: EvL2Hit})
			if ref%5 == 0 {
				w.Event(Event{Ref: ref, Kind: EvSynSameSet})
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ws := w.Done()
	if len(ws) != 3 || len(closed) != 3 {
		t.Fatalf("windows = %d, closed = %d; want 3", len(ws), len(closed))
	}
	if ws[0].FirstRef != 1 || ws[0].LastRef != 10 || ws[1].FirstRef != 11 {
		t.Errorf("window bounds: %+v %+v", ws[0], ws[1])
	}
	if ws[0].L1Hits != 5 || ws[0].L1Misses != 5 || ws[0].L1Ratio() != 0.5 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[0].Synonyms != 1 || ws[0].SynonymRate() != 0.1 {
		t.Errorf("window 0 synonyms = %d rate %v", ws[0].Synonyms, ws[0].SynonymRate())
	}
	if ws[2].L1Hits+ws[2].L1Misses != 5 {
		t.Errorf("trailing partial window = %+v", ws[2])
	}
	// The partial window's bound is clamped to the last reference seen,
	// not the nominal window end, so per-reference rates stay honest.
	if ws[2].FirstRef != 21 || ws[2].LastRef != 25 {
		t.Errorf("trailing partial bounds = %d-%d, want 21-25", ws[2].FirstRef, ws[2].LastRef)
	}
	if ws[2].SynonymRate() != 0.2 { // 1 synonym over 5 refs, not over 10
		t.Errorf("trailing partial synonym rate = %v, want 0.2", ws[2].SynonymRate())
	}
}

func TestWindowsAsProbeSink(t *testing.T) {
	p := New()
	w := NewWindows(4)
	p.AddSink(w)
	for i := 0; i < 10; i++ {
		p.AdvanceRef()
		p.Emit(Event{Kind: EvL1Hit})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ws := w.Done()
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	var hits uint64
	for _, m := range ws {
		hits += m.L1Hits
	}
	if hits != 10 {
		t.Errorf("hits across windows = %d", hits)
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	c := NewChromeTrace(&buf)
	c.Event(Event{Seq: 1, Ref: 1, CPU: 0, Kind: EvL1Miss, Access: stats.KindRead, VA: 0x40, PA: 0x80})
	c.Event(Event{Seq: 2, Ref: 1, CPU: 0, Kind: EvL2Hit, Access: stats.KindRead, VA: 0x40, PA: 0x80})
	c.Event(Event{Seq: 3, Ref: 1, CPU: 1, Kind: EvCohInvalidate, PA: 0x80})
	c.Event(Event{Seq: 4, Ref: 2, CPU: 0, Kind: EvCtxSwitch, Aux: CtxLazy})
	if c.Events() != 4 {
		t.Errorf("events = %d", c.Events())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	// 4 events + 2 process_name metadata records.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("traceEvents = %d records", len(doc.TraceEvents))
	}
	var sawMeta, sawX, sawInstant bool
	for _, te := range doc.TraceEvents {
		switch te["ph"] {
		case "M":
			sawMeta = true
		case "X":
			sawX = true
			if te["dur"].(float64) <= 0 {
				t.Error("X event without duration")
			}
		case "i":
			sawInstant = true
		}
	}
	if !sawMeta || !sawX || !sawInstant {
		t.Errorf("missing phases: meta=%v X=%v i=%v", sawMeta, sawX, sawInstant)
	}
}

func TestLogAndFilter(t *testing.T) {
	var buf bytes.Buffer
	filter, err := ParseFilter("synonym,bus-read")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(&buf, filter)
	l.Event(Event{Seq: 1, Kind: EvL1Hit, Access: stats.KindRead})
	l.Event(Event{Seq: 2, Kind: EvSynMove, VA: 0x40, PA: 0x80})
	l.Event(Event{Seq: 3, Kind: EvBusRead, PA: 0x100})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "l1-hit") {
		t.Error("filtered kind logged")
	}
	for _, want := range []string{"syn-move", "bus-read", "pa=0x80"} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
}

func TestParseFilterErrors(t *testing.T) {
	if _, err := ParseFilter("bogus-kind"); err == nil {
		t.Error("unknown filter term accepted")
	}
	if f, err := ParseFilter(""); err != nil || f != nil {
		t.Error("empty filter should accept everything via nil predicate")
	}
}

func TestKindStringsAndCategories(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
		if k.Category() == "other" {
			t.Errorf("kind %s has no category", s)
		}
	}
	if NumKinds.String() == "" || Kind(200).Category() != "other" {
		t.Error("out-of-range kinds mishandled")
	}
}

// TestWindowsResume: a collector resumed from Pending at any record
// boundary — mid-window, on a window bound, just before a context switch's
// pre-reference events — closes exactly the windows one uninterrupted
// collector closes.
func TestWindowsResume(t *testing.T) {
	// A record is one trace record's events: a reference (the probe
	// advances its index first) or a context switch (no new index), whose
	// eager write-back lands at the previous reference.
	type record struct {
		ref  bool
		kind Kind
	}
	var recs []record
	for i := 1; i <= 25; i++ {
		if i%7 == 0 {
			recs = append(recs, record{false, EvWriteBack})
		}
		k := EvL1Hit
		if i%3 == 0 {
			k = EvL1Miss
		}
		recs = append(recs, record{true, k})
	}
	// feed stamps each event with the reference index a probe created with
	// the collector would carry, and returns the references fed.
	feed := func(w *Windows, recs []record) uint64 {
		var ref uint64
		for _, r := range recs {
			if r.ref {
				ref++
			}
			w.Event(Event{Ref: ref, Kind: r.kind})
		}
		return ref
	}
	whole := NewWindows(10)
	feed(whole, recs)
	if err := whole.Close(); err != nil {
		t.Fatal(err)
	}
	want := whole.Done()
	if len(want) != 3 || want[2].LastRef != 25 {
		t.Fatalf("uninterrupted windows = %+v", want)
	}

	for cut := 0; cut <= len(recs); cut++ {
		var got []WindowMetrics
		first := NewWindows(10)
		first.OnClose = func(m WindowMetrics) { got = append(got, m) }
		base := feed(first, recs[:cut])
		pending, open := first.Pending()

		second := NewWindows(10)
		second.OnClose = first.OnClose
		second.Resume(base, pending, open)
		feed(second, recs[cut:])
		if err := second.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("resumed after record %d (ref %d):\n got %+v\nwant %+v", cut, base, got, want)
		}
	}
}

// BenchmarkProbeEmit measures the probe layer alone: ns/op is the cost of
// stamping, counting and delivering one event, with events interleaved
// across 4 CPUs, first with no sink attached and then with the windowed
// metrics collector every vrsimd job carries.
func BenchmarkProbeEmit(b *testing.B) {
	kinds := [...]Kind{EvL1Hit, EvTLBAbort, EvL1Hit, EvTimeAccess, EvL1Miss, EvL2Hit, EvBusRead, EvTimeAccess}
	for _, bc := range []struct {
		name    string
		windows bool
	}{{"nosink", false}, {"windows", true}} {
		b.Run(bc.name, func(b *testing.B) {
			p := New()
			if bc.windows {
				p.AddSink(NewWindows(1000))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(kinds) == 0 {
					p.AdvanceRef()
				}
				p.Emit(Event{CPU: i & 3, Kind: kinds[i%len(kinds)], Aux: 4})
			}
		})
	}
}
