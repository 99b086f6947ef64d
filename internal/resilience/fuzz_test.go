package resilience

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzCheckpointDecode hammers the envelope decoder with arbitrary
// bytes: it must never panic, never allocate from an attacker-declared
// length, and must accept exactly the frames EncodeEnvelope produces.
// The seed corpus spans the realistic damage classes (valid frame,
// truncations, header-only, bad magic, oversize claim).
func FuzzCheckpointDecode(f *testing.F) {
	valid := EncodeEnvelope([]byte(`{"frontier":[0,1],"memo":{"a":1.25}}`))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:envelopeHeaderSize])
	f.Add([]byte{})
	f.Add([]byte("LPMCKPT1"))
	f.Add(append([]byte("XXXXXXXX"), valid[8:]...))
	huge := append([]byte(nil), valid...)
	for i := 8; i < 16; i++ {
		huge[i] = 0xff
	}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		// Accepted frames must re-encode to the identical bytes: the
		// envelope is canonical, so decode∘encode is the identity.
		if !bytes.Equal(EncodeEnvelope(payload), data) {
			t.Fatalf("accepted frame is not canonical: %x", data)
		}
	})
}

// FuzzCheckpointJSON round-trips arbitrary JSON payloads through
// Save/Load semantics at the byte level (marshal → envelope → decode →
// unmarshal) so the full path shares the fuzzer's coverage.
func FuzzCheckpointJSON(f *testing.F) {
	f.Add(`{"k":1.5}`)
	f.Add(`[1,2,3]`)
	f.Add(`"x"`)
	f.Fuzz(func(t *testing.T, s string) {
		var v any
		if json.Unmarshal([]byte(s), &v) != nil {
			return
		}
		payload, err := json.Marshal(v)
		if err != nil {
			return
		}
		got, err := DecodeEnvelope(EncodeEnvelope(payload))
		if err != nil {
			t.Fatalf("self-encoded frame rejected: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload mutated in transit")
		}
	})
}
