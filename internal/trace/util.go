package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
)

// Merge interleaves several per-CPU trace streams round-robin, one record
// at a time, skipping streams that have ended — the standard way to build
// a multiprocessor trace from per-processor captures.
type Merge struct {
	readers []Reader
	next    int
	done    []bool
	left    int
}

// NewMerge creates a merged stream over the given readers.
func NewMerge(readers ...Reader) *Merge {
	return &Merge{
		readers: readers,
		done:    make([]bool, len(readers)),
		left:    len(readers),
	}
}

// Next implements Reader.
func (m *Merge) Next() (Ref, error) {
	for m.left > 0 {
		i := m.next
		m.next = (m.next + 1) % len(m.readers)
		if m.done[i] {
			continue
		}
		ref, err := m.readers[i].Next()
		if err == io.EOF {
			m.done[i] = true
			m.left--
			continue
		}
		if err != nil {
			return Ref{}, err
		}
		return ref, nil
	}
	return Ref{}, io.EOF
}

// FilterCPU passes through only one CPU's records (context switches
// included).
type FilterCPU struct {
	r   Reader
	cpu uint8
}

// NewFilterCPU wraps r, keeping only records for cpu.
func NewFilterCPU(r Reader, cpu uint8) *FilterCPU {
	return &FilterCPU{r: r, cpu: cpu}
}

// Next implements Reader.
func (f *FilterCPU) Next() (Ref, error) {
	for {
		ref, err := f.r.Next()
		if err != nil {
			return Ref{}, err
		}
		if ref.CPU == f.cpu {
			return ref, nil
		}
	}
}

// Counting wraps a Reader and tallies the records that pass through.
type Counting struct {
	r     Reader
	chars Characteristics
}

// NewCounting wraps r.
func NewCounting(r Reader) *Counting { return &Counting{r: r} }

// Next implements Reader.
func (c *Counting) Next() (Ref, error) {
	ref, err := c.r.Next()
	if err == nil {
		c.chars.Observe(ref)
	}
	return ref, err
}

// Characteristics returns the summary of records read so far.
func (c *Counting) Characteristics() Characteristics { return c.chars }

// Skip discards exactly n records (memory references and context switches
// both count) from r, batched to amortize interface dispatch. It returns
// the number discarded, short only when the trace ends first —
// checkpoint.ResumeReader uses it to position a regenerated trace at a
// checkpoint's cursor.
func Skip(r Reader, n uint64) (uint64, error) {
	var done uint64
	buf := make([]Ref, 4096)
	for done < n {
		want := n - done
		if want > uint64(len(buf)) {
			want = uint64(len(buf))
		}
		got, err := FillBatch(r, buf[:want])
		done += uint64(got)
		if err == io.EOF {
			return done, nil
		}
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// gzipMagic is the 2-byte gzip stream header.
var gzipMagic = [2]byte{0x1f, 0x8b}

// OpenBinary wraps a raw byte stream as a binary trace reader,
// transparently decompressing gzip (detected by its magic bytes).
func OpenBinary(r io.Reader) (Reader, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(2)
	if err != nil {
		return nil, fmt.Errorf("trace: cannot sniff stream: %w", err)
	}
	if head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip: %w", err)
		}
		return NewBinaryReader(gz), nil
	}
	return NewBinaryReader(br), nil
}

// GzipWriter is a BinaryWriter over a gzip stream. Close flushes both
// layers.
type GzipWriter struct {
	*BinaryWriter
	gz *gzip.Writer
}

// NewGzipWriter creates a compressed binary trace writer on w.
func NewGzipWriter(w io.Writer) *GzipWriter {
	gz := gzip.NewWriter(w)
	return &GzipWriter{BinaryWriter: NewBinaryWriter(gz), gz: gz}
}

// Close flushes the trace and terminates the gzip stream.
func (g *GzipWriter) Close() error {
	if err := g.Flush(); err != nil {
		return err
	}
	return g.gz.Close()
}
