package fabric

// Wire protocol. Every frame on a fabric connection is a PR 5
// checkpoint envelope — magic "LPMCKPT1", uint64 LE payload length,
// uint64 LE CRC64-ECMA, payload — whose payload is one JSON Msg. The
// envelope gives the stream self-describing length prefixes and
// end-to-end checksums, so a torn write, a truncated frame, or a
// flipped bit surfaces as a decode error at the frame boundary (the
// peer is then treated as dead) instead of a misparsed message.

import (
	"encoding/json"
	"fmt"
	"io"

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
// still arrives as an error.
const ProtoVersion = 7

// MaxFrame caps a frame's payload, inherited from the checkpoint
// envelope: anything larger is corruption, not data.
const MaxFrame = resilience.MaxCheckpointPayload

// maxSlots bounds the slots a hello may announce: they set the worker's
// dispatch budget and outbox size, so a value outside 1..maxSlots is
// refused, never clamped.
const maxSlots = 1024

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

// Msg is the single message shape for every frame in both directions;
// which fields are meaningful depends on Type. One struct instead of a
// type hierarchy keeps the decoder total: any valid frame decodes, and
// dispatch on Type rejects what a peer should not have sent.
type Msg struct {
	Type   string          `json:"type"`
	Proto  int             `json:"proto,omitempty"`
	Worker string          `json:"worker,omitempty"`
	Slots  int             `json:"slots,omitempty"`
	ID     uint64          `json:"id,omitempty"`
	Kind   string          `json:"kind,omitempty"`
	Key    string          `json:"key,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Value  json.RawMessage `json:"value,omitempty"`
	// Failed marks a result whose executor returned an error; Error is
	// that error's text, which may be empty.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	// PingMS is the heartbeat cadence the coordinator assigns in the
	// welcome frame; 0 disables pings for the session.
	PingMS int64 `json:"ping_ms,omitempty"`
}

// EncodeFrame marshals m and wraps it in the checkpoint envelope.
func EncodeFrame(m Msg) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("fabric: encode %s frame: %w", m.Type, err)
	}
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("fabric: %s frame payload of %d bytes exceeds the %d-byte cap",
			m.Type, len(payload), MaxFrame)
	}
	return resilience.EncodeEnvelope(payload), nil
}

// WriteFrame encodes m and writes the whole frame to w. The
// "fabric.frame.write" failpoint lets the chaos suite tear the write:
// when armed to fire it writes only the first half of the frame and
// returns the injected error, the shape a worker killed mid-send
// produces on the coordinator's reader.
func WriteFrame(w io.Writer, m Msg) error {
	frame, err := EncodeFrame(m)
	if err != nil {
		return err
	}
	if ierr := faultinject.Hit("fabric.frame.write", m.Type); ierr != nil {
		if _, werr := w.Write(frame[:len(frame)/2]); werr != nil {
			return werr
		}
		return ierr
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("fabric: write %s frame: %w", m.Type, err)
	}
	return nil
}

// ReadFrame reads one frame off r through resilience.ReadEnvelope and
// decodes its JSON. io.EOF is returned bare only when the stream ends
// cleanly between frames; a frame cut short wraps io.ErrUnexpectedEOF,
// a damaged one resilience.ErrCorruptCheckpoint.
func ReadFrame(r io.Reader) (Msg, error) {
	payload, err := resilience.ReadEnvelope(r)
	if err == io.EOF {
		return Msg{}, io.EOF
	}
	if err != nil {
		return Msg{}, fmt.Errorf("fabric: frame: %w", err)
	}
	var m Msg
	if err := json.Unmarshal(payload, &m); err != nil {
		return Msg{}, fmt.Errorf("fabric: decode frame payload: %w", err)
	}
	return m, nil
}
