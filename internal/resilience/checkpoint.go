package resilience

// Durable checkpoint envelope. A checkpoint file is
//
//	magic "LPMCKPT1" | uint64 LE payload length | uint64 LE CRC64-ECMA | payload
//
// The length-before-payload plus checksum makes every torn write
// detectable: a kill -9 mid-write leaves either the old complete file
// (the atomic rename never happened) or, on a non-atomic filesystem, a
// file the decoder rejects with a precise reason instead of feeding
// garbage into the resume path. The payload is JSON so checkpoints stay
// inspectable with jq after stripping the 24-byte header.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"

	"lpm/internal/cliutil"
	"lpm/internal/faultinject"
)

// checkpointMagic identifies the format and its version; a format
// change means a new magic, not a silent reinterpretation.
const checkpointMagic = "LPMCKPT1"

// envelopeHeaderSize is magic + length + checksum.
const envelopeHeaderSize = len(checkpointMagic) + 8 + 8

// MaxCheckpointPayload caps the declared payload length. Memo
// snapshots for the largest sweeps are tens of megabytes; anything
// claiming more is corruption, not data, and must not drive an
// allocation.
const MaxCheckpointPayload = 256 << 20

// ErrCorruptCheckpoint is the sentinel wrapped by every decode failure.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrChecksum marks an envelope that arrived whole but whose payload
// fails its CRC. It wraps ErrCorruptCheckpoint.
var ErrChecksum = fmt.Errorf("%w: CRC64 mismatch", ErrCorruptCheckpoint)

// EncodeEnvelope frames payload in the checkpoint envelope.
func EncodeEnvelope(payload []byte) []byte {
	out := make([]byte, envelopeHeaderSize+len(payload))
	copy(out[envelopeHeaderSize:], payload)
	SealEnvelope(out)
	return out
}

// EnvelopeHeaderSize is how many bytes an envelope spends before its
// payload.
const EnvelopeHeaderSize = envelopeHeaderSize

// SealEnvelope writes the header of frame, which must be at least
// EnvelopeHeaderSize bytes long, for the payload behind it: a writer
// that appends its payload after a reserved header frames it in place,
// with no copy.
func SealEnvelope(frame []byte) {
	payload := frame[envelopeHeaderSize:]
	copy(frame, checkpointMagic)
	binary.LittleEndian.PutUint64(frame[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(frame[16:], crc64.Checksum(payload, crcTable))
}

// ReadEnvelope reads one envelope off r and returns its payload: the
// header first (magic and length cap checked before any payload is
// read), then the payload, then its CRC. It returns io.EOF bare only
// when r ends cleanly between envelopes. Every damaged envelope wraps
// ErrCorruptCheckpoint; one cut short also wraps io.ErrUnexpectedEOF,
// and a whole one failing its CRC ErrChecksum. Other read failures are
// returned wrapped.
func ReadEnvelope(r io.Reader) ([]byte, error) {
	return ReadEnvelopeLimit(r, MaxCheckpointPayload)
}

// ReadEnvelopeLimit is ReadEnvelope under a smaller payload cap, for a
// stream whose next envelope has a known bound: a declared length past
// limit is refused as soon as the header arrives, before any payload
// byte is awaited.
func ReadEnvelopeLimit(r io.Reader, limit uint64) ([]byte, error) {
	var header [envelopeHeaderSize]byte
	switch n, err := io.ReadFull(r, header[:]); {
	case err == io.EOF:
		return nil, io.EOF
	case err == io.ErrUnexpectedEOF:
		return nil, fmt.Errorf("%w: stream ends %d bytes into the %d-byte header: %w",
			ErrCorruptCheckpoint, n, envelopeHeaderSize, err)
	case err != nil:
		return nil, fmt.Errorf("read envelope header: %w", err)
	}
	if string(header[:8]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorruptCheckpoint, header[:8], checkpointMagic)
	}
	declared := binary.LittleEndian.Uint64(header[8:])
	if declared > limit {
		return nil, fmt.Errorf("%w: declared payload of %d bytes exceeds the %d-byte cap",
			ErrCorruptCheckpoint, declared, limit)
	}
	// Read into a buffer of at most 1 MiB that doubles while bytes keep
	// arriving, so a damaged length on a short stream costs no more.
	size := int(declared)
	payload := make([]byte, min(size, 1<<20))
	for got := 0; got < size; {
		if got == len(payload) {
			payload = append(payload, make([]byte, min(size-got, got))...)
		}
		m, err := io.ReadFull(r, payload[got:])
		got += m
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: header declares %d payload bytes, stream carries %d: %w",
				ErrCorruptCheckpoint, size, got, io.ErrUnexpectedEOF)
		}
		if err != nil {
			return nil, fmt.Errorf("read %d-byte envelope payload: %w", size, err)
		}
	}
	if want, got := binary.LittleEndian.Uint64(header[16:]), crc64.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("%w (header %016x, payload %016x)", ErrChecksum, want, got)
	}
	return payload, nil
}

// DecodeEnvelope verifies that data is exactly one envelope and returns
// its payload. Every failure wraps ErrCorruptCheckpoint and says what is
// wrong: truncated header, bad magic, oversized or mismatched length,
// checksum failure.
func DecodeEnvelope(data []byte) ([]byte, error) {
	r := bytes.NewReader(data)
	payload, err := ReadEnvelope(r)
	switch {
	case err == io.EOF:
		return nil, fmt.Errorf("%w: empty, no %d-byte header", ErrCorruptCheckpoint, envelopeHeaderSize)
	case err == nil && r.Len() > 0:
		return nil, fmt.Errorf("%w: %d bytes follow the envelope's %d payload bytes",
			ErrCorruptCheckpoint, r.Len(), len(payload))
	}
	return payload, err
}

// SaveCheckpoint marshals v to JSON, frames it, and writes it to path
// atomically — a crash at any instant leaves the previous checkpoint
// intact.
func SaveCheckpoint(path string, v any) error {
	if err := faultinject.Hit("resilience.checkpoint.save", path); err != nil {
		return err
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if len(payload) > MaxCheckpointPayload {
		return fmt.Errorf("checkpoint %s: %d-byte payload exceeds the %d-byte cap",
			path, len(payload), MaxCheckpointPayload)
	}
	return cliutil.AtomicWriteFile(path, EncodeEnvelope(payload), 0o644)
}

// LoadCheckpoint reads and verifies path and unmarshals its payload
// into v. A missing file is returned as-is (os.IsNotExist-able) so
// callers can treat "no checkpoint yet" as a cold start.
func LoadCheckpoint(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	payload, err := DecodeEnvelope(data)
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("checkpoint %s: %w: %v", path, ErrCorruptCheckpoint, err)
	}
	return nil
}
