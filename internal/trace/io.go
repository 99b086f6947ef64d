package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format:
//
//	magic   [8]byte  "LPMTRC01"
//	name    uvarint length + bytes
//	records: one per instruction
//	  tag     byte: low 2 bits = Kind, bit 2 = has Dep, bit 3 = has Lat>1
//	  addr    uvarint (memory instructions only, delta-encoded vs previous)
//	  dep     uvarint (if present)
//	  lat     uvarint (if present)
//
// The format is self-delimiting; a Reader yields io.EOF at end of stream.

var traceMagic = [8]byte{'L', 'P', 'M', 'T', 'R', 'C', '0', '1'}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// Writer records an instruction stream to an io.Writer in the binary
// trace format. Create with NewWriter; call Flush when done.
type Writer struct {
	w        *bufio.Writer
	prevAddr uint64
	buf      []byte
}

// NewWriter writes the header for a trace named name and returns the
// Writer.
func NewWriter(w io.Writer, name string) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(name)))
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	return &Writer{w: bw, buf: make([]byte, 0, 4*binary.MaxVarintLen64)}, nil
}

// Write appends one instruction to the trace.
func (tw *Writer) Write(in Instr) error {
	tag := byte(in.Kind) & 0x3
	if in.Dep != 0 {
		tag |= 1 << 2
	}
	if in.Lat > 1 {
		tag |= 1 << 3
	}
	tw.buf = tw.buf[:0]
	tw.buf = append(tw.buf, tag)
	if in.Kind.IsMem() {
		// Zig-zag delta encoding keeps sequential streams tiny.
		delta := int64(in.Addr) - int64(tw.prevAddr)
		tw.buf = binary.AppendVarint(tw.buf, delta)
		tw.prevAddr = in.Addr
	}
	if in.Dep != 0 {
		tw.buf = binary.AppendUvarint(tw.buf, uint64(in.Dep))
	}
	if in.Lat > 1 {
		tw.buf = binary.AppendUvarint(tw.buf, uint64(in.Lat))
	}
	_, err := tw.w.Write(tw.buf)
	return err
}

// Flush flushes buffered output to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader replays a recorded trace. It implements Generator for seekable
// sources when constructed with NewReplayer; the lower-level NewReader
// form reads a stream once.
type Reader struct {
	r        *bufio.Reader
	name     string
	prevAddr uint64
}

// NewReader parses the header and returns a Reader positioned at the
// first instruction.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:])
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if nameLen > 4096 {
		return nil, fmt.Errorf("%w: unreasonable name length %d", ErrBadTrace, nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return &Reader{r: br, name: string(nameBytes)}, nil
}

// Name returns the recorded workload name.
func (tr *Reader) Name() string { return tr.name }

// Read returns the next instruction, or io.EOF at end of trace.
func (tr *Reader) Read() (Instr, error) {
	tag, err := tr.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Instr{}, io.EOF
		}
		return Instr{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	in := Instr{Kind: Kind(tag & 0x3), Lat: 1}
	if in.Kind > Store {
		return Instr{}, fmt.Errorf("%w: bad kind %d", ErrBadTrace, in.Kind)
	}
	if in.Kind.IsMem() {
		delta, err := binary.ReadVarint(tr.r)
		if err != nil {
			return Instr{}, fmt.Errorf("%w: truncated addr", ErrBadTrace)
		}
		in.Addr = uint64(int64(tr.prevAddr) + delta)
		tr.prevAddr = in.Addr
	}
	if tag&(1<<2) != 0 {
		dep, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return Instr{}, fmt.Errorf("%w: truncated dep", ErrBadTrace)
		}
		in.Dep = clampDep(dep)
	}
	if tag&(1<<3) != 0 {
		lat, err := binary.ReadUvarint(tr.r)
		if err != nil || lat == 0 || lat > 255 {
			return Instr{}, fmt.Errorf("%w: bad latency", ErrBadTrace)
		}
		in.Lat = uint8(lat)
	}
	return in, nil
}

// Record captures the next n instructions from g into w.
func Record(w io.Writer, g Generator, n int) error {
	tw, err := NewWriter(w, g.Name())
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := tw.Write(g.Next()); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Replayer adapts a fully buffered recorded trace to the Generator
// interface, looping back to the start when the recording is exhausted so
// the simulator can run for any horizon.
type Replayer struct {
	name   string
	instrs []Instr
	pos    int
}

// NewReplayer reads the whole trace from r into memory.
func NewReplayer(r io.Reader) (*Replayer, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	rp := &Replayer{name: tr.Name()}
	for {
		in, err := tr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rp.instrs = append(rp.instrs, in)
	}
	if len(rp.instrs) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadTrace)
	}
	return rp, nil
}

// Name implements Generator.
func (rp *Replayer) Name() string { return rp.name }

// Len returns the number of recorded instructions.
func (rp *Replayer) Len() int { return len(rp.instrs) }

// Next implements Generator, looping at end of recording.
func (rp *Replayer) Next() Instr {
	in := rp.instrs[rp.pos]
	rp.pos++
	if rp.pos == len(rp.instrs) {
		rp.pos = 0
	}
	return in
}

// Reset implements Generator.
func (rp *Replayer) Reset() { rp.pos = 0 }
