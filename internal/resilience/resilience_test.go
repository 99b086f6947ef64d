package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpm/internal/faultinject"
)

// TestLivelockErrorWrapped: the diagnostic bundle survives wrapping on
// its way up the error chain.
func TestLivelockErrorWrapped(t *testing.T) {
	ll := &LivelockError{Workload: "429.mcf", Cycle: 123456, Budget: 1000,
		Occupancy: map[string]uint64{"dram.queue_depth": 7}}
	err := fmt.Errorf("workload 429.mcf: %w", ll)
	var got *LivelockError
	if !errors.As(err, &got) {
		t.Fatalf("errors.As failed on %v", err)
	}
	if got.Occupancy["dram.queue_depth"] != 7 {
		t.Fatalf("diagnostic bundle lost: %+v", got)
	}
	if !strings.Contains(got.Error(), "429.mcf") || !strings.Contains(got.Error(), "1000") {
		t.Fatalf("summary %q lacks workload/budget", got.Error())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	type state struct {
		Frontier []int              `json:"frontier"`
		Memo     map[string]float64 `json:"memo"`
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	in := state{Frontier: []int{3, 1, 4}, Memo: map[string]float64{"a": 0.1234567890123456}}
	if err := SaveCheckpoint(path, in); err != nil {
		t.Fatal(err)
	}
	var out state
	if err := LoadCheckpoint(path, &out); err != nil {
		t.Fatal(err)
	}
	if out.Memo["a"] != in.Memo["a"] || len(out.Frontier) != 3 {
		t.Fatalf("round trip lost data: %+v", out)
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.ckpt"), &struct{}{})
	if !os.IsNotExist(err) {
		t.Fatalf("missing file err = %v, want IsNotExist", err)
	}
}

// TestDecodeEnvelopeRejectsDamage feeds the decoder every damage class
// the chaos harness produces: truncation at several depths, a flipped
// bit anywhere, a bad magic, and an absurd declared length. All must be
// rejected with ErrCorruptCheckpoint and a specific message.
func TestDecodeEnvelopeRejectsDamage(t *testing.T) {
	good := EncodeEnvelope([]byte(`{"frontier":[1,2,3],"memo":{"k":1.5}}`))
	if _, err := DecodeEnvelope(good); err != nil {
		t.Fatalf("pristine envelope rejected: %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "header"},
		{"header-only", good[:10], "header"},
		{"truncated-payload", good[:len(good)-5], "payload bytes"},
		{"extra-bytes", append(append([]byte(nil), good...), 'x'), "payload bytes"},
		{"bad-magic", append([]byte("NOTLPM00"), good[8:]...), "magic"},
		{"flipped-bit", faultinject.FlipBit(good, 42), ""},
		{"huge-length", func() []byte {
			d := append([]byte(nil), good...)
			d[8], d[9], d[10], d[11] = 0xff, 0xff, 0xff, 0xff
			return d
		}(), "cap"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeEnvelope(c.data)
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err %q lacks %q", err, c.want)
			}
		})
	}
}

func TestLoadCheckpointRejectsBadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, EncodeEnvelope([]byte("{not json")), 0o644); err != nil {
		t.Fatal(err)
	}
	err := LoadCheckpoint(path, &struct{}{})
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("bad JSON err = %v", err)
	}
}

func TestSaveCheckpointInjectedFault(t *testing.T) {
	restore := faultinject.Arm(faultinject.NewPlan(1,
		faultinject.Rule{Point: "resilience.checkpoint.save", Msg: "killed"}))
	defer restore()
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if err := SaveCheckpoint(path, 42); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed save left a file behind")
	}
}

// TestReadEnvelopeGrowsPastFirstChunk: a payload larger than the
// reader's first 1 MiB buffer comes back whole, and the same envelope
// cut one byte short is torn, not misread.
func TestReadEnvelopeGrowsPastFirstChunk(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 3<<16+1)
	frame := EncodeEnvelope(payload)
	got, err := ReadEnvelope(bytes.NewReader(frame))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("%d-byte payload: err %v, %d bytes back", len(payload), err, len(got))
	}
	if _, err := ReadEnvelope(bytes.NewReader(frame[:len(frame)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated: err %v, want unexpected EOF", err)
	}
}
