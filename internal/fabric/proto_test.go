package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"lpm/internal/faultinject"
	"lpm/internal/resilience"
)

// envelopeHeader is the LPMCKPT1 header's size: magic, payload length
// and CRC64.
const envelopeHeader = len("LPMCKPT1") + 8 + 8

// sampleMsgs covers every message type in both directions with
// realistic field mixes.
func sampleMsgs() []Msg {
	return []Msg{
		{Type: MsgHello, Proto: ProtoVersion, Worker: "w0", Slots: 4},
		{Type: MsgWelcome, Proto: ProtoVersion},
		{Type: MsgWork, ID: 7, Kind: "explore.sim", Key: "k|1|2", Spec: json.RawMessage(`{"Point":{"IssueWidth":2}}`)},
		{Type: MsgResult, ID: 7, Value: json.RawMessage(`{"CPIexe":0.5}`)},
		{Type: MsgResult, ID: 9, Failed: true, Error: "simulate 410.bwaves: livelock"},
		{Type: MsgResult, ID: 11, Failed: true, Error: "worker w0: connection reset"},
		{Type: MsgResult, ID: 13, Failed: true},
		{Type: MsgResult, ID: 15, Failed: true, Error: "bad \xff\xfe byte, NUL \x00 and \"quote\""},
		{Type: MsgPing, ID: 3},
		{Type: MsgPong, ID: 3},
	}
}

// TestFrameRoundTrip proves Write→Read is the identity for every
// message type, including several frames back to back on one stream.
func TestFrameRoundTrip(t *testing.T) {
	msgs := sampleMsgs()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("WriteFrame(%s): %v", m.Type, err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d round trip:\n got %#v\nwant %#v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("exhausted stream: got %v, want io.EOF", err)
	}
}

// TestFrameDecodeRejects pins the decoder's behaviour on the classic
// corruptions: truncation at every interesting boundary, bad magic,
// oversized declared length, and a flipped payload bit. Every rejection
// must wrap resilience.ErrCorruptCheckpoint (except mid-frame EOF,
// which is an unexpected-EOF transport error).
func TestFrameDecodeRejects(t *testing.T) {
	frame, err := EncodeFrame(Msg{Type: MsgWork, ID: 1, Kind: "k", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated header", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(frame[:envelopeHeader-1]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("got %v, want unexpected EOF", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(frame[:len(frame)-3]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("got %v, want unexpected EOF", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[0] ^= 0xff
		_, err := ReadFrame(bytes.NewReader(bad))
		if !errors.Is(err, resilience.ErrCorruptCheckpoint) {
			t.Fatalf("got %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint64(bad[8:], MaxFrame+1)
		_, err := ReadFrame(bytes.NewReader(bad))
		if !errors.Is(err, resilience.ErrCorruptCheckpoint) {
			t.Fatalf("got %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		bad := faultinject.FlipBit(frame, 1)
		// Re-flip if the corruption landed in the header's first 24
		// bytes: this subtest is about the CRC catching payload damage.
		if bytes.Equal(bad[envelopeHeader:], frame[envelopeHeader:]) {
			bad = append([]byte(nil), frame...)
			bad[envelopeHeader] ^= 0x01
		}
		_, err := ReadFrame(bytes.NewReader(bad))
		if !errors.Is(err, resilience.ErrCorruptCheckpoint) {
			t.Fatalf("got %v, want ErrCorruptCheckpoint", err)
		}
	})
}

// TestFrameTornWrite proves the "fabric.frame.write" failpoint tears a
// frame exactly the way a killed sender would: the reader sees an
// unexpected EOF, never a misparse.
func TestFrameTornWrite(t *testing.T) {
	defer faultinject.Arm(faultinject.NewPlan(1, faultinject.Rule{
		Point: "fabric.frame.write",
		Match: MsgResult,
		Msg:   "torn result frame",
	}))()

	var buf bytes.Buffer
	err := WriteFrame(&buf, Msg{Type: MsgResult, ID: 1, Value: json.RawMessage(`42`)})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn write: got %v, want injected error", err)
	}
	full, err := EncodeFrame(Msg{Type: MsgResult, ID: 1, Value: json.RawMessage(`42`)})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(full)/2 {
		t.Fatalf("torn write left %d bytes, want %d (half of %d)", buf.Len(), len(full)/2, len(full))
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("reading torn frame: got %v, want unexpected EOF", err)
	}
}

// v7Hello is a hello frame as protocol 7 wrote it: a JSON payload.
var v7Hello = resilience.EncodeEnvelope([]byte(`{"type":"hello","proto":7,"worker":"w","slots":1}`))

// payloadOf returns the payload of a well-formed frame.
func payloadOf(t testing.TB, m Msg) []byte {
	t.Helper()
	frame, err := EncodeFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	return frame[envelopeHeader:]
}

// malformedPayload is a payload the decoder must refuse, with a
// substring of the refusal.
type malformedPayload struct {
	name    string
	payload []byte
	want    string
}

// malformedPayloads covers every refusal the decoder makes.
func malformedPayloads(t testing.TB) []malformedPayload {
	work := payloadOf(t, Msg{Type: MsgWork, ID: 1, Kind: "k", Key: "key", Spec: json.RawMessage(`{}`)})
	hello := payloadOf(t, Msg{Type: MsgHello, Proto: ProtoVersion, Worker: "w", Slots: 1})
	// work's offsets: the type at 0, the four one-byte integers at 1..4,
	// the failed byte at 5, the empty worker's length at 6, kind's at 7.
	badFailed := append([]byte(nil), work...)
	badFailed[5] = 2
	overlong := append([]byte(nil), work...)
	overlong[7] = 0x7f
	unknown := append([]byte(nil), work...)
	unknown[0] = byte(len(msgTypes))
	return []malformedPayload{
		{"empty", nil, "type: payload ends first"},
		{"protocol 7 JSON", v7Hello[envelopeHeader:], "protocol 7 and older"},
		{"truncated varint", []byte{3, 0x80}, "id: varint cut short"},
		{"overflowing varint", append([]byte{3}, bytes.Repeat([]byte{0xff}, 11)...), "id: varint cut short or overflowing"},
		{"length past the payload", overlong, "kind: length 127 runs past"},
		{"trailing bytes", append(append([]byte(nil), hello...), 0), "1 bytes follow the last field"},
		{"unknown type code", unknown, "type: unknown code 7"},
		{"type code zero", append([]byte{0}, work[1:]...), "type: unknown code 0"},
		{"failed byte 2", badFailed, "failed: byte 2 is neither 0 nor 1"},
		{"cut after the fixed fields", work[:6], "worker: varint cut short"},
	}
}

// TestFrameDecodeRejectsMalformedPayload pins the payload decoder's
// refusals: every malformed payload in an intact envelope fails with an
// error wrapping ErrMalformedFrame that says which field is wrong.
func TestFrameDecodeRejectsMalformedPayload(t *testing.T) {
	for _, tc := range malformedPayloads(t) {
		m, err := ReadFrame(bytes.NewReader(resilience.EncodeEnvelope(tc.payload)))
		if !errors.Is(err, ErrMalformedFrame) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %+v, %v; want an ErrMalformedFrame containing %q", tc.name, m, err, tc.want)
		}
	}
	if _, err := EncodeFrame(Msg{Type: "bogus"}); err == nil {
		t.Error("a message of unknown type encoded")
	}
}

// TestFrameWriterReusesItsBuffer: a connection's frames after the first
// allocate nothing to encode, and each frame written through the reused
// buffer is the one EncodeFrame builds.
func TestFrameWriterReusesItsBuffer(t *testing.T) {
	var buf bytes.Buffer
	fw := frameWriter{w: &buf}
	for _, m := range sampleMsgs() {
		buf.Reset()
		if err := fw.WriteFrame(m); err != nil {
			t.Fatal(err)
		}
		want, err := EncodeFrame(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s frame through the reused buffer differs from EncodeFrame's", m.Type)
		}
	}
	buf.Grow(1 << 10)
	m := sampleMsgs()[2]
	if allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := fw.WriteFrame(m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("WriteFrame allocated %.1f times per frame, want 0", allocs)
	}
}

// BenchmarkFrameRoundTrip is one work frame's encode through a
// connection's writer and its decode on the other end.
func BenchmarkFrameRoundTrip(b *testing.B) {
	var wire bytes.Buffer
	fw := frameWriter{w: &wire}
	m := sampleMsgs()[2]
	b.ReportAllocs()
	for range b.N {
		wire.Reset()
		if err := fw.WriteFrame(m); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadFrame(&wire); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzFabricFrameDecode hardens ReadFrame against arbitrary streams:
// it must never panic, never allocate past the declared-length cap, and
// anything it accepts must re-encode to a frame that decodes to the
// same message.
func FuzzFabricFrameDecode(f *testing.F) {
	for _, m := range sampleMsgs() {
		frame, err := EncodeFrame(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)                                         // well-formed
		f.Add(frame[:len(frame)-2])                          // truncated payload
		f.Add(frame[:envelopeHeader/2])                      // truncated header
		f.Add(faultinject.FlipBit(frame, int64(len(frame)))) // CRC mismatch
		over := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint64(over[8:], MaxFrame+1) // oversized length
		f.Add(over)
	}
	f.Add([]byte{})
	f.Add([]byte("LPMCKPT1"))
	f.Add([]byte(strings.Repeat("LPMCKPT1", 4)))
	for _, tc := range malformedPayloads(f) {
		f.Add(resilience.EncodeEnvelope(tc.payload))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		frame, err := EncodeFrame(m)
		if err != nil {
			t.Fatalf("accepted message fails to re-encode: %v", err)
		}
		again, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("re-encode round trip:\n got %#v\nwant %#v", again, m)
		}
	})
}

// TestCheckHello pins the handshake validation: the slot count sizes a
// worker's dispatch budget and outbox, so a hello announcing anything
// outside 1..maxSlots is refused with a reason, never clamped — the
// values survive the wire exactly as sent.
func TestCheckHello(t *testing.T) {
	for _, tc := range []struct {
		name  string
		slots int
		want  string // substring of the refusal; "" = accepted
	}{
		{"one slot", 1, ""},
		{"the upper bound", maxSlots, ""},
		{"zero (the field omitted)", 0, "and 0 slots, want protocol 8 and 1..1024 slots"},
		{"negative", -1, "and -1 slots"},
		{"2^31", 1 << 31, "and 2147483648 slots"},
		{"one past the bound", maxSlots + 1, "and 1025 slots"},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Msg{Type: MsgHello, Proto: ProtoVersion, Worker: "w", Slots: tc.slots}); err != nil {
			t.Fatal(err)
		}
		hello, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		err = checkHello(hello)
		if tc.want == "" && err != nil {
			t.Errorf("%s: refused: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: got %v, want a refusal containing %q", tc.name, err, tc.want)
		}
	}
	if err := checkHello(Msg{Type: MsgHello, Proto: ProtoVersion + 1, Slots: 1}); err == nil {
		t.Error("a hello from another protocol version was accepted")
	}
	// Version 4 workers still send Busy/RTT on their pings, version 5
	// workers flag errors to retry, version 6 workers mark a failure only
	// by non-empty error text, version 7 workers encode frames as JSON:
	// all refused.
	for _, proto := range []int{4, 5, 6, 7} {
		if err := checkHello(Msg{Type: MsgHello, Proto: proto, Slots: 1}); err == nil {
			t.Errorf("a protocol %d hello was accepted", proto)
		}
	}
	// A protocol 7 hello does not even decode: its payload is JSON.
	if m, err := ReadFrame(bytes.NewReader(v7Hello)); !errors.Is(err, ErrMalformedFrame) || !strings.Contains(err.Error(), "protocol 7") {
		t.Errorf("protocol 7 hello: got %+v, %v; want a refusal naming protocol 7", m, err)
	}
}
