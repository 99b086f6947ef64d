package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// opTimeout bounds any single subprocess the benchmark waits for; the
// driver allows a run 180 s, and one that hangs must fail as an
// operation rather than be killed from outside without a result.
const opTimeout = 90 * time.Second

// buildBinaries compiles the named commands of the module under test
// into rc.bin. With a warm Go build cache this is the set-up cost a
// user pays before every measurement; the first build of a checkout is
// cold, which is why setup_s is a median over repeats.
func buildBinaries(rc *runCtx, names ...string) error {
	args := []string{"build", "-o", rc.bin + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	if err := os.MkdirAll(rc.bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = rc.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %v: %w\n%s", names, err, out)
	}
	return nil
}

// procResult is what a finished subprocess left behind.
type procResult struct {
	stdout []byte
	wall   time.Duration
	rssMB  float64
}

// maxRSSMB reads a finished process's peak resident set from its
// rusage (Linux reports kilobytes).
func maxRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// liveHeapMB is the memory figure of the in-process workloads: the
// benchmark process's live heap after a forced collection — what the
// chip, or the coordinator's result cache, retains. The process's own
// peak resident set is set by when the collector happens to run (the
// same run reads 16 or 19 MB), which says nothing about the simulator.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hwmMB reads a live process's peak resident set (VmHWM) from /proc. It
// lets serve_submit take lpmserve's figure at a fixed number of
// completed runs: the control plane keeps every run it has finished, so
// its resident set at the end of a fixed-time run grows with
// throughput, and a faster server would read as a memory regression.
// 0 means /proc is not available.
func hwmMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runProc runs one command of the program under test to completion
// from a fresh process and times it start to exit.
func runProc(rc *runCtx, name string, args ...string) (procResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(rc.bin, name), args...)
	cmd.Dir = rc.tmp
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	pr := procResult{stdout: stdout.Bytes(), wall: time.Since(start), rssMB: maxRSSMB(cmd.ProcessState)}
	if err != nil {
		return pr, fmt.Errorf("%s %v: %w: %s", name, args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return pr, nil
}

// stopProc asks a long-running subprocess to exit (SIGTERM, its
// documented drain path) and waits for it as waitProc does.
func stopProc(cmd *exec.Cmd, grace time.Duration) error {
	if cmd.Process == nil {
		return nil
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	return waitProc(cmd, grace)
}

// waitProc waits for a started subprocess to leave on its own and kills
// it if it has not within grace. It returns only when the process has
// ended.
func waitProc(cmd *exec.Cmd, grace time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		_ = cmd.Process.Kill()
		return <-done
	}
}
