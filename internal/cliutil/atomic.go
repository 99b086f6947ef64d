package cliutil

// Atomic output files: every file the CLIs produce (reports, traces,
// checkpoints, golden updates) goes through a temp-file + fsync + rename
// sequence so a crash — including kill -9 mid-write — leaves either the
// old file or the new one, never a truncated hybrid. The rename is the
// commit point; Close and Sync errors are checked because an unflushed
// "success" is exactly the failure mode this package exists to prevent.

import (
	"fmt"
	"os"
	"path/filepath"

	"lpm/internal/faultinject"
)

// AtomicWriteFile writes data to path atomically: the bytes land in a
// temporary file in path's directory, are fsynced, and the temp file is
// renamed over path. On error the temp file is removed and the previous
// contents of path (if any) are untouched.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	f, err := NewAtomicFile(path, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// AtomicFile is a streaming variant of AtomicWriteFile for producers
// that write incrementally (trace recording, event dumps): write through
// it, then Commit to publish or Abort to discard. Exactly one of the two
// must be called.
type AtomicFile struct {
	path   string
	tmp    *os.File
	direct bool // destination is not a regular file: no temp, no rename
	size   int64
	werr   error // first write error, latched so Commit refuses
}

// NewAtomicFile creates the temporary file backing an atomic write of
// path. A destination that exists and is not a regular file — a device,
// fifo, or symlink (`-record /dev/null`, output piped through a link) —
// is opened and written directly instead: renaming a temp file over it
// would replace the node with a regular file, and write errors the
// device reports (ENOSPC on /dev/full) must reach the caller rather
// than land on a temp file that never sees the device.
func NewAtomicFile(path string, perm os.FileMode) (*AtomicFile, error) {
	if fi, err := os.Lstat(path); err == nil && !fi.Mode().IsRegular() {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_TRUNC, perm)
		if err != nil {
			return nil, fmt.Errorf("atomic write %s: %w", path, err)
		}
		return &AtomicFile{path: path, tmp: f, direct: true}, nil
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("atomic write %s: %w", path, err)
	}
	if err := tmp.Chmod(perm); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return nil, fmt.Errorf("atomic write %s: %w", path, err)
	}
	return &AtomicFile{path: path, tmp: tmp}, nil
}

// Write implements io.Writer against the temporary file.
func (f *AtomicFile) Write(p []byte) (int, error) {
	if f.werr != nil {
		return 0, f.werr
	}
	if err := faultinject.Hit("cliutil.atomic.write", f.path); err != nil {
		f.werr = err
		return 0, err
	}
	n, err := f.tmp.Write(p)
	f.size += int64(n)
	if err != nil {
		f.werr = err
	}
	return n, err
}

// Size returns the number of bytes written so far.
func (f *AtomicFile) Size() int64 { return f.size }

// Commit flushes the temporary file to stable storage and renames it
// over the destination. Any earlier write error, or a failure in
// Sync/Close/Rename, aborts the commit and preserves the old file.
// For a direct (non-regular) destination there is nothing to rename and
// no durability to promise: Commit is the latched write error plus the
// Close.
func (f *AtomicFile) Commit() error {
	if f.direct {
		if f.werr != nil {
			_ = f.tmp.Close()
			return fmt.Errorf("atomic write %s: %w", f.path, f.werr)
		}
		if err := f.tmp.Close(); err != nil {
			return fmt.Errorf("atomic write %s: %w", f.path, err)
		}
		return nil
	}
	tmpName := f.tmp.Name()
	fail := func(err error) error {
		_ = f.tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("atomic write %s: %w", f.path, err)
	}
	if f.werr != nil {
		return fail(f.werr)
	}
	if err := f.tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := f.tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("atomic write %s: %w", f.path, err)
	}
	if err := faultinject.Hit("cliutil.atomic.rename", f.path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("atomic write %s: %w", f.path, err)
	}
	if err := os.Rename(tmpName, f.path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("atomic write %s: %w", f.path, err)
	}
	// Publishing the rename itself: fsync the directory so the entry
	// survives a power cut. Best-effort on filesystems that refuse
	// directory fsync, but a reported failure is still a failure.
	dir, err := os.Open(filepath.Dir(f.path))
	if err != nil {
		return fmt.Errorf("atomic write %s: sync dir: %w", f.path, err)
	}
	syncErr := dir.Sync()
	if err := dir.Close(); err != nil {
		return fmt.Errorf("atomic write %s: sync dir: %w", f.path, err)
	}
	if syncErr != nil {
		return fmt.Errorf("atomic write %s: sync dir: %w", f.path, syncErr)
	}
	return nil
}

// Abort discards the temporary file; the destination is untouched. Safe
// to call after a failed Write. A direct destination is only closed —
// it existed before us and is not ours to remove.
func (f *AtomicFile) Abort() {
	_ = f.tmp.Close()
	if !f.direct {
		_ = os.Remove(f.tmp.Name())
	}
}
