package fleet

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lpm/internal/resilience"
)

// appendAll opens the journal at path, appends one record per key —
// the submit records older coordinators wrote, which replay still
// reads — and closes it.
func appendAll(t testing.TB, path string, keys ...string) {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := j.Append(Entry{Op: "submit", Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// tear cuts n bytes off the end of the file at path, as a kill -9 in
// the middle of an Append leaves it.
func tear(t testing.TB, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestJournalResumesAfterTwoTears kills a coordinator mid-Append twice:
// each successor opens the torn journal and appends, and the journal
// must still replay every committed record, in sequence.
func TestJournalResumesAfterTwoTears(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "sched.journal")
	appendAll(t, path, "k0", "k1", "k2")
	tear(t, path, 5) // k2 never committed
	appendAll(t, path, "k3", "k4")
	tear(t, path, 5) // nor k4
	appendAll(t, path, "k5")

	got, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"k0", "k1", "k3", "k5"}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records %+v, want %v", len(got), got, want)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) || e.Key != want[i] {
			t.Fatalf("record %d = seq %d key %q, want seq %d key %q", i, e.Seq, e.Key, i+1, want[i])
		}
	}
}

// FuzzReplayJournal feeds replay arbitrary bytes. It must return entries
// or an error wrapping resilience.ErrCorruptCheckpoint, never panic; and
// a journal that replays must, once a successor has opened it and
// appended, replay as the same entries plus the new one.
func FuzzReplayJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.journal")
	appendAll(f, path, "k0", "k1", "k2")
	whole, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= len(whole); cut++ {
		f.Add(whole[:cut])
	}
	frame := func(seq uint64) []byte {
		payload, err := json.Marshal(Entry{Seq: seq, Op: "submit"})
		if err != nil {
			f.Fatal(err)
		}
		return resilience.EncodeEnvelope(payload)
	}
	f.Add(frame(2))                      // the first record is not seq 1
	f.Add(append(frame(1), frame(3)...)) // a sequence gap

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "sched.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := ReplayJournal(path)
		if err != nil {
			if !errors.Is(err, resilience.ErrCorruptCheckpoint) {
				t.Fatalf("replay error does not wrap ErrCorruptCheckpoint: %v", err)
			}
			return
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("journal replays but will not open: %v", err)
		}
		next := Entry{Tick: 7, Op: OpQuarantine, Worker: "next"}
		if err := j.Append(next); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		next.Seq = uint64(len(entries) + 1)
		got, err := ReplayJournal(path)
		if err != nil {
			t.Fatalf("replay after append: %v", err)
		}
		if want := append(entries, next); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay after append:\n got %+v\nwant %+v", got, want)
		}
	})
}
