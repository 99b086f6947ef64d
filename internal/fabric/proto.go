package fabric

// Wire protocol. Every frame on a fabric connection is a PR 5
// checkpoint envelope — magic "LPMCKPT1", uint64 LE payload length,
// uint64 LE CRC64-ECMA, payload — whose payload is one Msg in a
// fixed-order binary layout:
//
//	type                      1 byte: 1 hello, 2 welcome, 3 work, 4 result, 5 ping, 6 pong
//	id                        uvarint
//	proto, slots, ping_ms     varint each
//	failed                    1 byte: 0 or 1
//	worker, kind, key,
//	spec, value, error        uvarint length, then that many bytes, each
//
// Every field is present in every frame, whatever its type, so one
// decoder serves both directions. Spec, value and error text are opaque
// bytes: the fabric neither validates nor re-encodes them, so what an
// executor returned — invalid UTF-8 in its error text included —
// arrives byte for byte. The decoder is total: a payload either decodes
// or fails with an error wrapping ErrMalformedFrame (a field cut short,
// a length past the payload's end, an unknown type code, a failed byte
// other than 0 or 1, bytes after the last field, or the JSON payload of
// protocol 7 and older).
//
// The envelope gives the stream self-describing length prefixes and
// end-to-end checksums, so a torn write, a truncated frame, or a
// flipped bit surfaces as a decode error at the frame boundary (the
// peer is then treated as dead) instead of a misparsed message.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"lpm/internal/faultinject"
	"lpm/internal/resilience"
)

// ProtoVersion is the one protocol this build speaks. The handshake
// accepts exactly this version from both sides: a hello from any other
// build is refused rather than guessed at. Every session carries the
// ping/pong heartbeat pair (PingMS in the welcome tells the worker its
// cadence). Version 6 dropped the result frame's flag that asked for a
// retry: every answer is now final. Version 7 marks a failed result with
// Failed instead of a non-empty Error, so an error whose text is empty
// still arrives as an error. Version 8 replaces the JSON payload with
// the binary layout above.
const ProtoVersion = 8

// MaxFrame caps a frame's payload, inherited from the checkpoint
// envelope: anything larger is corruption, not data.
const MaxFrame = resilience.MaxCheckpointPayload

// maxSlots bounds the slots a hello may announce: they set the worker's
// dispatch budget and outbox size, so a value outside 1..maxSlots is
// refused, never clamped.
const maxSlots = 1024

// maxWorkerName bounds a worker's name in bytes. The name is an identity
// in logs, stats and the journal, never data, and the bound sizes the
// handshake cap below.
const maxWorkerName = 4096

// maxHandshakeFrame caps a handshake frame's payload: the largest hello
// RunWorker sends, a maximal name and no other variable-length field
// (the welcome carries none). Both ends read the handshake under it, so
// a length field damaged in flight is refused as soon as its header
// arrives instead of holding the join for handshakeWithin.
const maxHandshakeFrame = maxMsgOverhead + maxWorkerName

// ErrWorkerName marks a worker name longer than maxWorkerName, which
// RunWorker refuses before dialling.
var ErrWorkerName = fmt.Errorf("fabric: worker name over %d bytes", maxWorkerName)

// checkHello validates the handshake fields the coordinator acts on.
func checkHello(m Msg) error {
	if m.Proto != ProtoVersion || m.Slots < 1 || m.Slots > maxSlots {
		return fmt.Errorf("hello announces protocol %d and %d slots, want protocol %d and 1..%d slots",
			m.Proto, m.Slots, ProtoVersion, maxSlots)
	}
	return nil
}

// Message types. The protocol is deliberately small: a handshake pair,
// a work/result pair, and a heartbeat pair.
const (
	// MsgHello is worker → coordinator: first frame on a connection,
	// declaring protocol version, worker name, and slot count.
	MsgHello = "hello"
	// MsgWelcome is coordinator → worker: handshake accept.
	MsgWelcome = "welcome"
	// MsgWork is coordinator → worker: one granule to execute.
	MsgWork = "work"
	// MsgResult is worker → coordinator: a granule's value or error.
	MsgResult = "result"
	// MsgPing is worker → coordinator: periodic liveness proof. ID
	// correlates the pong.
	MsgPing = "ping"
	// MsgPong is coordinator → worker: ping acknowledgement echoing ID;
	// the worker counts silent intervals to detect a wedged session from
	// its side.
	MsgPong = "pong"
)

// msgTypes maps a type code to its message type; code 0 is unused.
var msgTypes = [...]string{1: MsgHello, 2: MsgWelcome, 3: MsgWork, 4: MsgResult, 5: MsgPing, 6: MsgPong}

// Msg is the single message shape for every frame in both directions;
// which fields are meaningful depends on Type. One struct instead of a
// type hierarchy keeps the decoder total: any valid frame decodes, and
// dispatch on Type rejects what a peer should not have sent.
type Msg struct {
	Type   string
	Proto  int
	Worker string
	Slots  int
	ID     uint64
	Kind   string
	Key    string
	Spec   json.RawMessage
	Value  json.RawMessage
	// Failed marks a result whose executor returned an error; Error is
	// that error's text, which may be empty.
	Failed bool
	Error  string
	// PingMS is the heartbeat cadence the coordinator assigns in the
	// welcome frame; 0 disables pings for the session.
	PingMS int64
}

// ErrMalformedFrame is wrapped by every payload the decoder refuses.
var ErrMalformedFrame = errors.New("fabric: malformed frame payload")

// maxMsgOverhead bounds a payload's bytes beyond its six variable-length
// fields: the type and failed bytes and ten varints (four integers, six
// lengths).
const maxMsgOverhead = 2 + 10*binary.MaxVarintLen64

// appendFrame appends m's whole frame — envelope header, payload and
// CRC — to b[:0], growing it at most once.
func appendFrame(b []byte, m Msg) ([]byte, error) {
	code := byte(slices.Index(msgTypes[1:], m.Type) + 1)
	if code == 0 {
		return b, fmt.Errorf("fabric: encode: unknown message type %q", m.Type)
	}
	b = slices.Grow(b[:0], resilience.EnvelopeHeaderSize+maxMsgOverhead+
		len(m.Worker)+len(m.Kind)+len(m.Key)+len(m.Spec)+len(m.Value)+len(m.Error))
	b = append(b[:resilience.EnvelopeHeaderSize], code)
	b = binary.AppendUvarint(b, m.ID)
	b = binary.AppendVarint(b, int64(m.Proto))
	b = binary.AppendVarint(b, int64(m.Slots))
	b = binary.AppendVarint(b, m.PingMS)
	failed := byte(0)
	if m.Failed {
		failed = 1
	}
	b = append(b, failed)
	b = appendField(b, m.Worker)
	b = appendField(b, m.Kind)
	b = appendField(b, m.Key)
	b = appendField(b, m.Spec)
	b = appendField(b, m.Value)
	b = appendField(b, m.Error)
	if n := len(b) - resilience.EnvelopeHeaderSize; n > MaxFrame {
		return b, fmt.Errorf("fabric: %s frame payload of %d bytes exceeds the %d-byte cap", m.Type, n, MaxFrame)
	}
	resilience.SealEnvelope(b)
	return b, nil
}

// appendField appends v's length and bytes.
func appendField[T ~string | ~[]byte](b []byte, v T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

// decodeMsg decodes one payload. Spec and Value alias payload, which
// the caller must not reuse.
func decodeMsg(payload []byte) (Msg, error) {
	if len(payload) > 0 && payload[0] == '{' {
		return Msg{}, fmt.Errorf("%w: a JSON message, the payload of protocol 7 and older (this build speaks protocol %d)",
			ErrMalformedFrame, ProtoVersion)
	}
	d := decoder{b: payload}
	var m Msg
	if code := d.byte("type"); int(code) < len(msgTypes) && code != 0 {
		m.Type = msgTypes[code]
	} else if d.err == nil {
		d.fail("type", fmt.Sprintf("unknown code %d", code))
	}
	m.ID = d.uvarint("id")
	m.Proto = d.int("proto")
	m.Slots = d.int("slots")
	m.PingMS = d.varint("ping_ms")
	if f := d.byte("failed"); f > 1 {
		d.fail("failed", fmt.Sprintf("byte %d is neither 0 nor 1", f))
	} else {
		m.Failed = f == 1
	}
	m.Worker = string(d.field("worker"))
	m.Kind = string(d.field("kind"))
	m.Key = string(d.field("key"))
	m.Spec = d.field("spec")
	m.Value = d.field("value")
	m.Error = string(d.field("error"))
	if d.err == nil && len(d.b) > 0 {
		d.fail("payload", fmt.Sprintf("%d bytes follow the last field", len(d.b)))
	}
	if d.err != nil {
		return Msg{}, d.err
	}
	return m, nil
}

// decoder reads a payload front to back; its first failure sticks, and
// every read after it returns the zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(field, why string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s: %s", ErrMalformedFrame, field, why)
	}
}

func (d *decoder) byte(field string) byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail(field, "payload ends first")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint(field string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(field, "varint cut short or overflowing")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint(field string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(field, "varint cut short or overflowing")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a varint that must fit this platform's int.
func (d *decoder) int(field string) int {
	v := d.varint(field)
	if int64(int(v)) != v {
		d.fail(field, fmt.Sprintf("%d overflows int", v))
	}
	return int(v)
}

// field reads a length-prefixed byte string; empty reads as nil.
func (d *decoder) field(name string) []byte {
	n := d.uvarint(name)
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail(name, fmt.Sprintf("length %d runs past the %d bytes left", n, len(d.b)))
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// EncodeFrame encodes m in a new frame.
func EncodeFrame(m Msg) ([]byte, error) {
	return appendFrame(nil, m)
}

// frameWriter writes frames through one buffer it reuses, so a
// connection's stream of frames allocates nothing per frame. It is not
// safe for concurrent use: the coordinator writes each connection from
// one goroutine, the worker under its write mutex.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

// WriteFrame encodes m and writes the whole frame. The
// "fabric.frame.write" failpoint lets the chaos suite tear the write:
// when armed to fire it writes only the first half of the frame and
// returns the injected error, the shape a worker killed mid-send
// produces on the coordinator's reader.
func (fw *frameWriter) WriteFrame(m Msg) error {
	frame, err := appendFrame(fw.buf, m)
	if err != nil {
		return err
	}
	fw.buf = frame
	if ierr := faultinject.Hit("fabric.frame.write", m.Type); ierr != nil {
		if _, werr := fw.w.Write(frame[:len(frame)/2]); werr != nil {
			return werr
		}
		return ierr
	}
	if _, err := fw.w.Write(frame); err != nil {
		return fmt.Errorf("fabric: write %s frame: %w", m.Type, err)
	}
	return nil
}

// WriteFrame encodes m and writes the whole frame to w (see
// frameWriter.WriteFrame).
func WriteFrame(w io.Writer, m Msg) error {
	return (&frameWriter{w: w}).WriteFrame(m)
}

// ReadFrame reads one frame off r through resilience.ReadEnvelope and
// decodes its payload. io.EOF is returned bare only when the stream
// ends cleanly between frames; a frame cut short wraps
// io.ErrUnexpectedEOF, a damaged envelope
// resilience.ErrCorruptCheckpoint, a payload the decoder refuses
// ErrMalformedFrame.
func ReadFrame(r io.Reader) (Msg, error) {
	return readFrameLimit(r, MaxFrame)
}

// readHandshake reads a hello or welcome: ReadFrame under
// maxHandshakeFrame.
func readHandshake(r io.Reader) (Msg, error) {
	return readFrameLimit(r, maxHandshakeFrame)
}

// readFrameLimit is ReadFrame refusing a declared payload over limit.
func readFrameLimit(r io.Reader, limit uint64) (Msg, error) {
	payload, err := resilience.ReadEnvelopeLimit(r, limit)
	if err == io.EOF {
		return Msg{}, io.EOF
	}
	if err != nil {
		return Msg{}, fmt.Errorf("fabric: frame: %w", err)
	}
	return decodeMsg(payload)
}
