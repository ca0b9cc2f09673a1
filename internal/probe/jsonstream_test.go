package probe

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

var errFull = errors.New("destination full")

// failAfter is a closable destination that accepts limit bytes and fails
// every write from the one that crosses the limit on.
type failAfter struct {
	limit   int
	got     bytes.Buffer
	late    int    // writes that arrived after the failure
	closes  int    // Close calls
	atClose string // what had been written when Close was called
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.got.Len() >= f.limit {
		f.late++
		return 0, errFull
	}
	if room := f.limit - f.got.Len(); len(p) > room {
		f.got.Write(p[:room])
		return room, errFull
	}
	return f.got.Write(p)
}

func (f *failAfter) Close() error {
	f.closes++
	f.atClose = f.got.String()
	return nil
}

type streamRecord struct {
	Seq  int    `json:"seq"`
	Name string `json:"name"`
}

func writeRecords(s *JSONStream, n int) {
	for i := 0; i < n; i++ {
		s.Record(streamRecord{Seq: i, Name: strings.Repeat("x", 40)})
	}
}

func TestJSONStream(t *testing.T) {
	const n = 300 // about 16 KB: past the stream's write buffer several times
	whole := &failAfter{limit: 1 << 30}
	s := NewJSONStream(whole, `{"records":[`, "]}\n")
	writeRecords(s, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Records() != n {
		t.Errorf("Records = %d, want %d", s.Records(), n)
	}
	doc := whole.got.String()
	if whole.closes != 1 || whole.atClose != doc || !strings.HasSuffix(doc, "}]}\n") {
		t.Errorf("destination closed %d times, holding %d of the document's %d bytes", whole.closes, len(whole.atClose), len(doc))
	}
	var parsed struct{ Records []streamRecord }
	if err := json.Unmarshal([]byte(doc), &parsed); err != nil || len(parsed.Records) != n {
		t.Fatalf("document does not parse to %d records (%d, %v)", n, len(parsed.Records), err)
	}
	if strings.Count(doc, ",\n") != n-1 {
		t.Errorf("%d separators for %d records", strings.Count(doc, ",\n"), n)
	}

	// A destination that fails part-way receives a prefix of the same
	// document and nothing after the failure; the stream keeps that first
	// error and stops counting records.
	const limit = 6000
	short := &failAfter{limit: limit}
	s = NewJSONStream(short, `{"records":[`, "]}\n")
	writeRecords(s, n)
	if !errors.Is(s.Err(), errFull) {
		t.Fatalf("Err = %v after the destination filled", s.Err())
	}
	if got := s.Records(); got == 0 || got >= n {
		t.Errorf("Records = %d of %d after failing at byte %d", got, n, limit)
	}
	kept := s.Records()
	writeRecords(s, 10)
	if err := s.Close(); !errors.Is(err, errFull) {
		t.Errorf("Close = %v, want the destination's first error", err)
	}
	if s.Records() != kept {
		t.Errorf("Records moved from %d to %d after the failure", kept, s.Records())
	}
	if short.late != 0 {
		t.Errorf("%d writes reached the destination after it failed", short.late)
	}
	if short.got.String() != doc[:limit] {
		t.Errorf("destination holds %d bytes that are not the document's first %d", short.got.Len(), limit)
	}
	if short.closes != 1 {
		t.Errorf("failed destination closed %d times, want 1", short.closes)
	}
}
