// Package trace defines the memory-reference record driving the simulator
// and streaming readers/writers for it, in both a compact binary format and
// a human-readable text format.
//
// A trace is an interleaved sequence of per-CPU references, in global order,
// the same model as the ATUM multiprocessor traces the paper used. Context
// switches appear in-band as CtxSwitch records naming the incoming process.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/addr"
)

// Kind classifies a trace record.
type Kind uint8

// Record kinds.
const (
	IFetch    Kind = iota // instruction fetch
	Read                  // data read
	Write                 // data write
	CtxSwitch             // context switch: Addr is unused, PID is the incoming process
)

// String returns the kind's single-letter trace mnemonic.
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "I"
	case Read:
		return "R"
	case Write:
		return "W"
	case CtxSwitch:
		return "S"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsMemory reports whether the record is a memory reference (not a context
// switch).
func (k Kind) IsMemory() bool { return k != CtxSwitch }

// ParseKind converts a mnemonic back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "I":
		return IFetch, nil
	case "R":
		return Read, nil
	case "W":
		return Write, nil
	case "S":
		return CtxSwitch, nil
	default:
		return 0, fmt.Errorf("trace: unknown kind %q", s)
	}
}

// Ref is one trace record.
type Ref struct {
	CPU  uint8      // which processor issued the reference
	Kind Kind       //
	PID  addr.PID   // issuing process; for CtxSwitch, the incoming process
	Addr addr.VAddr // virtual address; meaningless for CtxSwitch
}

// String renders the record in the text-trace line format.
func (r Ref) String() string {
	return fmt.Sprintf("%d %s %d %#x", r.CPU, r.Kind, r.PID, uint64(r.Addr))
}

// Reader is a stream of trace records. Next returns io.EOF after the last
// record.
type Reader interface {
	Next() (Ref, error)
}

// BatchReader is a Reader that can fill a caller-provided slice in one call,
// amortizing the per-record interface dispatch. ReadBatch returns the number
// of records written into dst; it returns io.EOF (with n == 0) only once the
// stream is exhausted. n may be short of len(dst) without the stream being
// done.
type BatchReader interface {
	Reader
	ReadBatch(dst []Ref) (n int, err error)
}

// FillBatch fills dst from r, using ReadBatch when r implements BatchReader
// and falling back to per-record Next calls otherwise. Like ReadBatch it
// returns io.EOF only with n == 0.
func FillBatch(r Reader, dst []Ref) (int, error) {
	if br, ok := r.(BatchReader); ok {
		return br.ReadBatch(dst)
	}
	for n := range dst {
		ref, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) && n > 0 {
				return n, nil
			}
			return n, err
		}
		dst[n] = ref
	}
	return len(dst), nil
}

// SliceReader adapts a slice of records to the Reader interface.
type SliceReader struct {
	refs []Ref
	pos  int
}

// NewSliceReader wraps refs. The slice is not copied.
func NewSliceReader(refs []Ref) *SliceReader { return &SliceReader{refs: refs} }

// Next implements Reader.
func (r *SliceReader) Next() (Ref, error) {
	if r.pos >= len(r.refs) {
		return Ref{}, io.EOF
	}
	ref := r.refs[r.pos]
	r.pos++
	return ref, nil
}

// ReadBatch implements BatchReader by copying directly from the backing
// slice.
func (r *SliceReader) ReadBatch(dst []Ref) (int, error) {
	if r.pos >= len(r.refs) {
		return 0, io.EOF
	}
	n := copy(dst, r.refs[r.pos:])
	r.pos += n
	return n, nil
}

// Len returns the total number of records.
func (r *SliceReader) Len() int { return len(r.refs) }

// Reset rewinds the reader to the first record.
func (r *SliceReader) Reset() { r.pos = 0 }

// ReadAll drains a Reader into a slice, a batch at a time (FillBatch).
func ReadAll(r Reader) ([]Ref, error) { return AppendAll(nil, r) }

// AppendAll appends r's records to dst until r ends, a batch at a time
// (FillBatch). dst grows only once r proves to hold more records than dst
// has room for, so a dst made with room for them all is filled in place.
func AppendAll(dst []Ref, r Reader) ([]Ref, error) {
	for {
		if len(dst) == cap(dst) {
			ref, err := r.Next()
			if errors.Is(err, io.EOF) {
				return dst, nil
			}
			if err != nil {
				return dst, err
			}
			dst = append(dst, ref)
			continue
		}
		n, err := FillBatch(r, dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if errors.Is(err, io.EOF) {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Limit wraps a Reader and stops after n records.
type Limit struct {
	r    Reader
	left int
}

// NewLimit returns a Reader that yields at most n records from r.
func NewLimit(r Reader, n int) *Limit { return &Limit{r: r, left: n} }

// Next implements Reader.
func (l *Limit) Next() (Ref, error) {
	if l.left <= 0 {
		return Ref{}, io.EOF
	}
	l.left--
	return l.r.Next()
}

// ReadBatch implements BatchReader, delegating to the wrapped reader's batch
// path when it has one.
func (l *Limit) ReadBatch(dst []Ref) (int, error) {
	if l.left <= 0 {
		return 0, io.EOF
	}
	if l.left < len(dst) {
		dst = dst[:l.left]
	}
	n, err := FillBatch(l.r, dst)
	l.left -= n
	return n, err
}

// binaryMagic begins every binary trace stream.
var binaryMagic = [4]byte{'V', 'R', 'T', '1'}

// BinaryWriter encodes records in the compact binary trace format:
// a 4-byte magic, then per record a fixed header byte (cpu<<4 | kind),
// a uvarint PID and a uvarint address.
type BinaryWriter struct {
	w     *bufio.Writer
	begun bool
	buf   [2 * binary.MaxVarintLen64]byte
}

// NewBinaryWriter creates a writer on w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (bw *BinaryWriter) Write(r Ref) error {
	if !bw.begun {
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.begun = true
	}
	if r.CPU > 15 {
		return fmt.Errorf("trace: CPU %d exceeds binary format limit of 15", r.CPU)
	}
	if err := bw.w.WriteByte(byte(r.CPU)<<4 | byte(r.Kind)); err != nil {
		return err
	}
	n := binary.PutUvarint(bw.buf[:], uint64(r.PID))
	n += binary.PutUvarint(bw.buf[n:], uint64(r.Addr))
	_, err := bw.w.Write(bw.buf[:n])
	return err
}

// Flush writes out any buffered data; call it before closing the underlying
// writer. An empty trace still emits the magic header.
func (bw *BinaryWriter) Flush() error {
	if !bw.begun {
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.begun = true
	}
	return bw.w.Flush()
}

// BinaryReader decodes the binary trace format.
type BinaryReader struct {
	r     *bufio.Reader
	begun bool
}

// NewBinaryReader creates a reader on r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReader(r)}
}

// Next implements Reader.
func (br *BinaryReader) Next() (Ref, error) {
	if !br.begun {
		var magic [4]byte
		if _, err := io.ReadFull(br.r, magic[:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				err = fmt.Errorf("trace: truncated magic: %w", err)
			}
			return Ref{}, err
		}
		if magic != binaryMagic {
			return Ref{}, fmt.Errorf("trace: bad magic %q", magic[:])
		}
		br.begun = true
	}
	hdr, err := br.r.ReadByte()
	if err != nil {
		return Ref{}, err // io.EOF at a record boundary is clean EOF
	}
	kind := Kind(hdr & 0x0F)
	if kind > CtxSwitch {
		return Ref{}, fmt.Errorf("trace: bad kind %d in header byte %#x", kind, hdr)
	}
	pid, err := binary.ReadUvarint(br.r)
	if err != nil {
		return Ref{}, fmt.Errorf("trace: truncated pid: %w", noEOF(err))
	}
	if pid > 0xFFFF {
		return Ref{}, fmt.Errorf("trace: pid %d out of range", pid)
	}
	a, err := binary.ReadUvarint(br.r)
	if err != nil {
		return Ref{}, fmt.Errorf("trace: truncated addr: %w", noEOF(err))
	}
	return Ref{CPU: hdr >> 4, Kind: kind, PID: addr.PID(pid), Addr: addr.VAddr(a)}, nil
}

// noEOF converts io.EOF to io.ErrUnexpectedEOF so that a mid-record EOF is
// not mistaken for a clean end of stream.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// TextWriter encodes records one per line as "cpu kind pid hexaddr".
// Lines beginning with '#' and blank lines are comments on input.
type TextWriter struct {
	w *bufio.Writer
}

// NewTextWriter creates a writer on w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (tw *TextWriter) Write(r Ref) error {
	_, err := fmt.Fprintln(tw.w, r.String())
	return err
}

// Flush writes out buffered data.
func (tw *TextWriter) Flush() error { return tw.w.Flush() }

// TextReader decodes the text trace format.
type TextReader struct {
	s    *bufio.Scanner
	line int
}

// NewTextReader creates a reader on r.
func NewTextReader(r io.Reader) *TextReader {
	return &TextReader{s: bufio.NewScanner(r)}
}

// Next implements Reader.
func (tr *TextReader) Next() (Ref, error) {
	for tr.s.Scan() {
		tr.line++
		line := strings.TrimSpace(tr.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ref, err := ParseLine(line)
		if err != nil {
			return Ref{}, fmt.Errorf("trace: line %d: %w", tr.line, err)
		}
		return ref, nil
	}
	if err := tr.s.Err(); err != nil {
		return Ref{}, err
	}
	return Ref{}, io.EOF
}

// ParseLine parses one text-format record.
func ParseLine(line string) (Ref, error) {
	fields := strings.Fields(line)
	if len(fields) != 4 {
		return Ref{}, fmt.Errorf("want 4 fields, got %d", len(fields))
	}
	cpu, err := strconv.ParseUint(fields[0], 10, 8)
	if err != nil {
		return Ref{}, fmt.Errorf("bad cpu %q: %w", fields[0], err)
	}
	kind, err := ParseKind(fields[1])
	if err != nil {
		return Ref{}, err
	}
	pid, err := strconv.ParseUint(fields[2], 10, 16)
	if err != nil {
		return Ref{}, fmt.Errorf("bad pid %q: %w", fields[2], err)
	}
	a, err := strconv.ParseUint(fields[3], 0, 64)
	if err != nil {
		return Ref{}, fmt.Errorf("bad addr %q: %w", fields[3], err)
	}
	return Ref{CPU: uint8(cpu), Kind: kind, PID: addr.PID(pid), Addr: addr.VAddr(a)}, nil
}

// Characteristics summarizes a trace in the style of the paper's Table 5.
// The seen-CPU and seen-PID sets are fixed-size bitsets rather than maps so
// Observe stays on the per-reference hot path without hashing or allocating.
type Characteristics struct {
	CPUs         int
	TotalRefs    uint64
	Instrs       uint64
	Reads        uint64
	Writes       uint64
	CtxSwitches  uint64
	DistinctPIDs int
	seenCPU      [4]uint64    // 256 possible CPU ids
	seenPID      [1024]uint64 // 65536 possible PIDs
}

// Observe folds one record into the summary.
func (c *Characteristics) Observe(r Ref) {
	if bit := uint64(1) << (r.CPU & 63); c.seenCPU[r.CPU>>6]&bit == 0 {
		c.seenCPU[r.CPU>>6] |= bit
		c.CPUs++
	}
	if r.PID != addr.NoPID {
		if bit := uint64(1) << (r.PID & 63); c.seenPID[r.PID>>6]&bit == 0 {
			c.seenPID[r.PID>>6] |= bit
			c.DistinctPIDs++
		}
	}
	switch r.Kind {
	case IFetch:
		c.TotalRefs++
		c.Instrs++
	case Read:
		c.TotalRefs++
		c.Reads++
	case Write:
		c.TotalRefs++
		c.Writes++
	case CtxSwitch:
		c.CtxSwitches++
	}
}

// Summarize drains a Reader and returns its characteristics.
func Summarize(r Reader) (Characteristics, error) {
	var c Characteristics
	for {
		ref, err := r.Next()
		if errors.Is(err, io.EOF) {
			return c, nil
		}
		if err != nil {
			return c, err
		}
		c.Observe(ref)
	}
}
