package lpm

// Durable checkpoint/resume for the simulation-backed drivers. The unit
// of persistence is the named memo cache: every simulation result the
// run produced, keyed by its content fingerprint. Because the drivers
// are deterministic given their inputs, reseeding the caches and
// replaying the walk reproduces the uninterrupted run bit-for-bit — the
// checkpoint does not need to encode control-flow position, only the
// expensive work already done.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"lpm/internal/parallel"
	"lpm/internal/resilience"
)

// CheckpointSchema versions the checkpoint payload (the envelope framing
// is versioned separately by resilience's magic).
const CheckpointSchema = "lpm-checkpoint/v2"

// Checkpoint is the JSON payload carried inside a resilience envelope.
type Checkpoint struct {
	// Schema is CheckpointSchema.
	Schema string `json:"schema"`
	// Tool names the producing command.
	Tool string `json:"tool"`
	// Key fingerprints the run configuration (workload, scale, flags).
	// LoadMemoCheckpoint refuses a mismatched key: seeding caches from a
	// different configuration would silently corrupt results.
	Key string `json:"key"`
	// Memos maps memo-cache names to their encoded snapshots.
	Memos map[string]json.RawMessage `json:"memos"`
}

// SaveMemoCheckpoint atomically persists every named memo cache to path,
// stamped with the run key. Safe to call repeatedly (e.g. after every
// evaluation); each call rewrites the file via temp-file+rename, so a
// kill at any instant leaves either the previous checkpoint or the new
// one, never a torn file.
func SaveMemoCheckpoint(path, tool, key string) error {
	memos, err := parallel.ExportMemos()
	if err != nil {
		return fmt.Errorf("checkpoint: export memos: %w", err)
	}
	ck := Checkpoint{Schema: CheckpointSchema, Tool: tool, Key: key, Memos: memos}
	return resilience.SaveCheckpoint(path, ck)
}

// LoadMemoCheckpoint reads a checkpoint and seeds the named memo caches
// from it, after validating the envelope, schema, and run key. A missing
// file is reported via the underlying os error (check with
// errors.Is(err, fs.ErrNotExist) to treat it as a cold start).
func LoadMemoCheckpoint(path, key string) (*Checkpoint, error) {
	var ck Checkpoint
	if err := resilience.LoadCheckpoint(path, &ck); err != nil {
		return nil, err
	}
	if ck.Schema != CheckpointSchema {
		return nil, fmt.Errorf("checkpoint %s: unsupported schema %q (want %s)", path, ck.Schema, CheckpointSchema)
	}
	if ck.Key != key {
		return nil, fmt.Errorf("checkpoint %s: run key mismatch: file has %q, this run is %q (delete the checkpoint or match the flags that produced it)", path, ck.Key, key)
	}
	if err := parallel.ImportMemos(ck.Memos); err != nil {
		return nil, fmt.Errorf("checkpoint %s: seed memos: %w", path, err)
	}
	return &ck, nil
}

// ResumeMemoCheckpoint is the CLIs' -checkpoint/-resume flag pair: seed
// the memo caches from resume (a missing file is a cold start, noted on
// stderr) and return the path to checkpoint to (-resume implies it).
func ResumeMemoCheckpoint(ckpt, resume, key string, stderr io.Writer) (string, error) {
	if resume != "" {
		if _, err := LoadMemoCheckpoint(resume, key); err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				return "", fmt.Errorf("resume: %w", err)
			}
			fmt.Fprintf(stderr, "resume: %s not found, starting cold\n", resume)
		}
	}
	if ckpt == "" {
		ckpt = resume
	}
	return ckpt, nil
}
