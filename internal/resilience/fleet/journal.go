package fleet

// Coordinator scheduling journal. Every scheduling decision — granule
// submitted/issued/completed/re-queued, worker joined/lost/quarantined/
// readmitted — is appended as one LPMCKPT1-framed JSON record and
// fsynced before the decision takes effect downstream. kill -9 of the
// coordinator then loses nothing that matters: a successor replays the
// journal, rebuilds quarantine and retry state, skips keys the result
// checkpoint already holds, and the sweep completes bit-identically.
//
// The frame-per-record layout (rather than one envelope around the
// whole file) is what makes append-only crash safety work: a torn tail
// — half a record written when the process died — fails the tail
// frame's CRC or length check and replay stops cleanly at the last
// complete record. Nothing before the tear is lost.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"lpm/internal/resilience"
)

// Journal operation codes. Kept short: a large sweep writes one record
// per scheduling decision. Replay skips codes it does not fold, such as
// the "fallback" records older coordinators wrote.
const (
	OpSubmit     = "submit"     // granule entered the queue
	OpIssue      = "issue"      // granule sent to a worker
	OpComplete   = "complete"   // result accepted (first-result-wins)
	OpRequeue    = "requeue"    // granule pulled back for re-dispatch
	OpJoin       = "join"       // worker handshake accepted
	OpGone       = "gone"       // worker session torn down
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
	Kind   string `json:"kind,omitempty"`
	Key    string `json:"key,omitempty"`
	// Retries is the granule's retry count at requeue time, so a
	// resumed coordinator keeps charging the same retry budget.
	Retries int `json:"retries,omitempty"`
	// Detail carries human-oriented context (error text, strike cause).
	Detail string `json:"detail,omitempty"`
}

// Journal is the append side. Append is not internally locked — the
// coordinator calls it under its scheduling mutex, which also gives the
// sequence numbers their ordering.
type Journal struct {
	f    *os.File
	path string
	seq  uint64
}

// OpenJournal opens (creating if needed) an append-only journal at
// path. Appends continue the sequence after any records already present
// — a resumed coordinator reuses the same file. A torn tail is cut off
// first: a record appended after it would sit behind a bad frame, and
// the next replay would fail there.
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
	j := &Journal{f: f, path: path}
	if n := len(entries); n > 0 {
		j.seq = entries[n-1].Seq
	}
	return j, nil
}

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
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < resilience.EnvelopeHeaderSize {
			// Torn tail: a partial header at EOF.
			break
		}
		payloadLen, err := resilience.ParseEnvelopeHeader(rest[:resilience.EnvelopeHeaderSize])
		if err != nil {
			return nil, 0, fmt.Errorf("journal %s: record %d: %w", path, len(entries)+1, err)
		}
		frameLen := resilience.EnvelopeHeaderSize + payloadLen
		if len(rest) < frameLen {
			// Torn tail: header landed but the payload did not.
			break
		}
		payload, err := resilience.DecodeEnvelope(rest[:frameLen])
		if err != nil {
			if off+frameLen == len(data) {
				// Torn tail: the final frame's bytes are incomplete or
				// scrambled — the record never fully committed.
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
		off += frameLen
	}
	return entries, off, nil
}

// JournalState is the scheduling state recovered from a replayed
// journal: what a successor coordinator needs beyond the result
// checkpoint.
type JournalState struct {
	// Quarantined holds workers whose breaker was tripped and not yet
	// readmitted at the time of the crash.
	Quarantined []string
	// Retries maps granule kind+"\x00"+key to the retry count charged
	// so far, so budgets carry across the restart.
	Retries map[string]int
}

// GranuleKey builds the kind+key composite used by JournalState maps.
func GranuleKey(kind, key string) string { return kind + "\x00" + key }

// RecoverState folds a replayed journal into the successor's starting
// state. Pure: the fold is a deterministic function of the entries.
func RecoverState(entries []Entry) *JournalState {
	st := &JournalState{Retries: make(map[string]int)}
	quarantined := make(map[string]bool)
	for _, e := range entries {
		switch e.Op {
		case OpRequeue:
			k := GranuleKey(e.Kind, e.Key)
			if e.Retries > st.Retries[k] {
				st.Retries[k] = e.Retries
			}
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
