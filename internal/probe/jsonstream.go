package probe

import (
	"bufio"
	"encoding/json"
	"io"
)

// JSONStream writes one JSON document whose body is an array streamed a
// record at a time: a header, each record marshalled as the next array
// element (elements separated by ",\n"), and a footer on Close. The trace
// exporters (ChromeTrace here, the span writers in internal/telemetry)
// each frame their document with it and keep their own record types. The
// first error sticks: later records are dropped, nothing more reaches the
// destination, and Close returns it.
type JSONStream struct {
	w      *bufio.Writer
	closer io.Closer // closed after the footer when the destination is closable
	footer string
	n      int
	err    error
}

// NewJSONStream starts a document on w with header; Close writes footer.
// If w is also an io.Closer (e.g. an *os.File), Close closes it after the
// footer.
func NewJSONStream(w io.Writer, header, footer string) *JSONStream {
	s := &JSONStream{w: bufio.NewWriter(w), footer: footer}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	_, s.err = s.w.WriteString(header)
	return s
}

// Record marshals v as the next array element.
func (s *JSONStream) Record(v any) {
	if s.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err == nil && s.n > 0 {
		_, err = s.w.WriteString(",\n")
	}
	if err == nil {
		_, err = s.w.Write(b)
	}
	if err != nil {
		s.err = err
		return
	}
	s.n++
}

// Records returns the number of array elements written.
func (s *JSONStream) Records() int { return s.n }

// Err returns the first error the stream met, if any.
func (s *JSONStream) Err() error { return s.err }

// Close writes the footer and flushes, then closes a closable destination
// (on every path), and returns the first error.
func (s *JSONStream) Close() error {
	if s.err == nil {
		_, s.err = s.w.WriteString(s.footer)
	}
	if s.err == nil {
		s.err = s.w.Flush()
	}
	if s.closer != nil {
		if err := s.closer.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}
