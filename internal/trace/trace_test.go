package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func sampleRefs() []Ref {
	return []Ref{
		{CPU: 0, Kind: IFetch, PID: 1, Addr: 0x1000},
		{CPU: 1, Kind: Read, PID: 2, Addr: 0xDEADBEEF},
		{CPU: 2, Kind: Write, PID: 3, Addr: 0},
		{CPU: 3, Kind: CtxSwitch, PID: 7, Addr: 0},
		{CPU: 15, Kind: Write, PID: 0xFFFF, Addr: 1<<40 - 1},
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{IFetch: "I", Read: "R", Write: "W", CtxSwitch: "S"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
		back, err := ParseKind(want)
		if err != nil || back != k {
			t.Errorf("ParseKind(%q) = %v, %v", want, back, err)
		}
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include number")
	}
	if _, err := ParseKind("X"); err == nil {
		t.Error("ParseKind(X) should fail")
	}
}

func TestKindIsMemory(t *testing.T) {
	if !IFetch.IsMemory() || !Read.IsMemory() || !Write.IsMemory() {
		t.Error("memory kinds misclassified")
	}
	if CtxSwitch.IsMemory() {
		t.Error("CtxSwitch should not be memory")
	}
}

func TestSliceReader(t *testing.T) {
	refs := sampleRefs()
	r := NewSliceReader(refs)
	if r.Len() != len(refs) {
		t.Fatalf("Len = %d", r.Len())
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, refs) {
		t.Fatalf("ReadAll mismatch:\n got %v\nwant %v", got, refs)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Error("want EOF after drain")
	}
	r.Reset()
	if ref, err := r.Next(); err != nil || ref != refs[0] {
		t.Error("Reset did not rewind")
	}
}

// TestAppendAll fills a dst with room for every record in place, and grows
// one without.
func TestAppendAll(t *testing.T) {
	refs := sampleRefs()
	for _, room := range []int{len(refs), 1, 0} {
		dst := make([]Ref, 1, 1+room)
		dst[0] = Ref{Addr: 7}
		got, err := AppendAll(dst, NewSliceReader(refs))
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]Ref{{Addr: 7}}, refs...); !reflect.DeepEqual(got, want) {
			t.Fatalf("room %d: AppendAll = %v, want %v", room, got, want)
		}
		if inPlace := &got[0] == &dst[0]; inPlace != (room == len(refs)) {
			t.Errorf("room %d for %d records: filled in place = %v", room, len(refs), inPlace)
		}
	}
}

func TestLimit(t *testing.T) {
	r := NewLimit(NewSliceReader(sampleRefs()), 2)
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Limit yielded %d records, want 2", len(got))
	}
}

func TestLimitZero(t *testing.T) {
	r := NewLimit(NewSliceReader(sampleRefs()), 0)
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Error("Limit(0) should be empty")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	refs := sampleRefs()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewBinaryReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, refs) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, refs)
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewBinaryReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace yielded %d records", len(got))
	}
}

func TestBinaryCPULimit(t *testing.T) {
	w := NewBinaryWriter(io.Discard)
	if err := w.Write(Ref{CPU: 16}); err == nil {
		t.Error("CPU 16 should be rejected by binary format")
	}
}

func TestBinaryBadMagic(t *testing.T) {
	r := NewBinaryReader(strings.NewReader("NOPE...."))
	if _, err := r.Next(); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestBinaryTruncated(t *testing.T) {
	refs := sampleRefs()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop mid-record (one byte short): must yield a non-EOF error eventually.
	r := NewBinaryReader(bytes.NewReader(full[:len(full)-1]))
	var err error
	for err == nil {
		_, err = r.Next()
	}
	if errors.Is(err, io.EOF) {
		t.Error("mid-record truncation reported as clean EOF")
	}
}

func TestBinaryBadKind(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{'V', 'R', 'T', '1'})
	buf.WriteByte(0x0F) // kind 15: invalid
	buf.WriteByte(0)
	buf.WriteByte(0)
	if _, err := NewBinaryReader(&buf).Next(); err == nil {
		t.Error("bad kind should fail")
	}
}

func TestBinaryQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		refs := make([]Ref, int(n))
		for i := range refs {
			refs[i] = Ref{
				CPU:  uint8(rng.Intn(16)),
				Kind: Kind(rng.Intn(4)),
				PID:  addr.PID(rng.Intn(1 << 16)),
				Addr: addr.VAddr(rng.Uint64() >> uint(rng.Intn(64))),
			}
		}
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		for _, r := range refs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ReadAll(NewBinaryReader(&buf))
		if err != nil {
			return false
		}
		if len(got) != len(refs) {
			return false
		}
		for i := range refs {
			if got[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	refs := sampleRefs()
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewTextReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, refs) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, refs)
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n0 R 1 0x10\n   \n# trailing\n1 W 2 32\n"
	got, err := ReadAll(NewTextReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []Ref{
		{CPU: 0, Kind: Read, PID: 1, Addr: 0x10},
		{CPU: 1, Kind: Write, PID: 2, Addr: 32},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTextErrors(t *testing.T) {
	bad := []string{
		"0 R 1",          // too few fields
		"0 R 1 0x10 zz",  // too many fields
		"9999 R 1 0x10",  // cpu overflow
		"0 Q 1 0x10",     // bad kind
		"0 R 99999999 1", // pid overflow
		"0 R 1 nothex",   // bad addr
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q): want error", line)
		}
	}
}

func TestTextErrorIncludesLineNumber(t *testing.T) {
	in := "0 R 1 0x10\nbogus line here\n"
	r := NewTextReader(strings.NewReader(in))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Next()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-numbered error, got %v", err)
	}
}

func TestCharacteristics(t *testing.T) {
	refs := []Ref{
		{CPU: 0, Kind: IFetch, PID: 1},
		{CPU: 0, Kind: Read, PID: 1},
		{CPU: 1, Kind: Write, PID: 2},
		{CPU: 1, Kind: CtxSwitch, PID: 3},
		{CPU: 1, Kind: Read, PID: 3},
	}
	c, err := Summarize(NewSliceReader(refs))
	if err != nil {
		t.Fatal(err)
	}
	if c.CPUs != 2 {
		t.Errorf("CPUs = %d, want 2", c.CPUs)
	}
	if c.TotalRefs != 4 {
		t.Errorf("TotalRefs = %d, want 4", c.TotalRefs)
	}
	if c.Instrs != 1 || c.Reads != 2 || c.Writes != 1 {
		t.Errorf("mix = %d/%d/%d", c.Instrs, c.Reads, c.Writes)
	}
	if c.CtxSwitches != 1 {
		t.Errorf("CtxSwitches = %d, want 1", c.CtxSwitches)
	}
	if c.DistinctPIDs != 3 {
		t.Errorf("DistinctPIDs = %d, want 3", c.DistinctPIDs)
	}
}

func TestRefString(t *testing.T) {
	r := Ref{CPU: 2, Kind: Write, PID: 5, Addr: 0x1F}
	if got := r.String(); got != "2 W 5 0x1f" {
		t.Errorf("String = %q", got)
	}
}
