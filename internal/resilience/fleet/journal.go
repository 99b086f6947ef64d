package fleet

// Coordinator scheduling journal. It records the two scheduling facts
// a successor coordinator restores — a worker quarantined, a worker
// readmitted — each appended as one LPMCKPT1-framed JSON record and
// fsynced before the decision takes effect downstream. Everything else a
// successor needs comes from the driver's result checkpoint, so a sweep
// without a lying or dying worker appends nothing. kill -9 of the
// coordinator then loses nothing that matters: a successor replays the
// journal, rebuilds the quarantine roster, skips keys the result
// checkpoint already holds, and the sweep completes bit-identically.
//
// The frame-per-record layout (rather than one envelope around the
// whole file) is what makes append-only crash safety work: a torn tail
// — half a record written when the process died — fails the tail
// frame's CRC or length check and replay stops cleanly at the last
// complete record. Nothing before the tear is lost.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"lpm/internal/resilience"
)

// Journal operation codes: the ones RecoverState folds. Replay skips
// any other code, such as the requeue, submit, issue, complete, join,
// gone and "fallback" records older coordinators wrote, so their
// journals still open.
const (
	OpQuarantine = "quarantine" // worker tripped the breaker
	OpReadmit    = "readmit"    // probation expired, worker readmitted
)

// Entry is one journal record. Seq is a strictly increasing sequence
// number (replay validates monotonicity); Tick is the coordinator's
// logical clock when the decision was made.
type Entry struct {
	Seq    uint64 `json:"seq"`
	Tick   uint64 `json:"tick"`
	Op     string `json:"op"`
	Worker string `json:"worker,omitempty"`
	// Kind and Key name a granule, as the records of older coordinators
	// did; the two ops RecoverState folds name only a Worker.
	Kind string `json:"kind,omitempty"`
	Key  string `json:"key,omitempty"`
}

// Journal is the append side. Append is not internally locked — the
// coordinator calls it under its scheduling mutex, which also gives the
// sequence numbers their ordering.
type Journal struct {
	f         *os.File
	path      string
	seq       uint64
	recovered *JournalState
}

// OpenJournal opens (creating if needed) an append-only journal at
// path. Appends continue the sequence after any records already present
// — a resumed coordinator reuses the same file — and Recovered holds
// the state those records fold to. A torn tail is cut off first: a
// record appended after it would sit behind a bad frame, and the next
// replay would fail there.
func OpenJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	entries, committed, err := replay(path, data)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	if committed < len(data) {
		if err := f.Truncate(int64(committed)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal %s: cutting the torn tail: %w", path, err)
		}
	}
	j := &Journal{f: f, path: path, recovered: RecoverState(entries)}
	if n := len(entries); n > 0 {
		j.seq = entries[n-1].Seq
	}
	return j, nil
}

// Recovered returns the scheduling state folded from the records the
// journal held when it was opened.
func (j *Journal) Recovered() *JournalState { return j.recovered }

// Append frames e, writes it, and fsyncs so the record survives a
// kill -9 the instant Append returns. e.Seq is assigned here.
func (j *Journal) Append(e Entry) error {
	if j == nil {
		return nil
	}
	j.seq++
	e.Seq = j.seq
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	if _, err := j.f.Write(resilience.EncodeEnvelope(payload)); err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	return nil
}

// Close releases the file handle.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}

// ReplayJournal reads every complete record from path, in order. A torn
// tail — an incomplete or corrupt final frame, the signature of dying
// mid-Append — is tolerated: replay returns everything before it.
// Corruption anywhere *before* the tail (or a sequence break) is a real
// integrity failure and is returned as an error wrapping
// resilience.ErrCorruptCheckpoint.
func ReplayJournal(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	entries, _, err := replay(path, data)
	return entries, err
}

// replay decodes the records of a journal's bytes and returns them with
// the length of the committed prefix, where a torn tail (if any) begins.
func replay(path string, data []byte) ([]Entry, int, error) {
	var entries []Entry
	r := bytes.NewReader(data)
	committed := 0
	for {
		payload, err := resilience.ReadEnvelope(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn tail: the final frame cut short, or whole but
			// scrambled — the record never fully committed.
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, resilience.ErrChecksum) && r.Len() == 0 {
				break
			}
			return nil, 0, fmt.Errorf("journal %s: record %d: %w", path, len(entries)+1, err)
		}
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			return nil, 0, fmt.Errorf("journal %s: record %d: %w: %v",
				path, len(entries)+1, resilience.ErrCorruptCheckpoint, err)
		}
		if len(entries) == 0 {
			if e.Seq != 1 {
				return nil, 0, fmt.Errorf("journal %s: %w: first record has seq %d, want 1",
					path, resilience.ErrCorruptCheckpoint, e.Seq)
			}
		} else if prev := entries[len(entries)-1].Seq; e.Seq != prev+1 {
			return nil, 0, fmt.Errorf("journal %s: record %d: %w: seq %d follows %d",
				path, len(entries)+1, resilience.ErrCorruptCheckpoint, e.Seq, prev)
		}
		entries = append(entries, e)
		committed = len(data) - r.Len()
	}
	return entries, committed, nil
}

// JournalState is the scheduling state recovered from a replayed
// journal: what a successor coordinator needs beyond the result
// checkpoint.
type JournalState struct {
	// Quarantined holds workers whose breaker was tripped and not yet
	// readmitted at the time of the crash.
	Quarantined []string
}

// RecoverState folds a replayed journal into the successor's starting
// state. Pure: the fold is a deterministic function of the entries.
func RecoverState(entries []Entry) *JournalState {
	st := &JournalState{}
	quarantined := make(map[string]bool)
	for _, e := range entries {
		switch e.Op {
		case OpQuarantine:
			quarantined[e.Worker] = true
		case OpReadmit:
			delete(quarantined, e.Worker)
		}
	}
	for name := range quarantined {
		st.Quarantined = append(st.Quarantined, name)
	}
	sort.Strings(st.Quarantined)
	return st
}
