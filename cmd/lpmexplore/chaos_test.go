package main

// Chaos regression tests for the checkpoint/resume path. The
// "kill-equivalent" interruption is a deterministic faultinject firing
// at an injected point: the state it leaves on disk is exactly what a
// kill -9 at that instant would leave, because every checkpoint write
// is an atomic temp-file+fsync+rename. The recovery contract under
// test: a resumed run must reproduce the uninterrupted run's output
// bit for bit.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpm"
	"lpm/internal/faultinject"
	"lpm/internal/parallel"
	"lpm/internal/resilience"
)

// chaosArgs is the shared tiny-budget flag set; every run in a test must
// use the same result-shaping flags or -resume refuses the checkpoint.
func chaosArgs(extra ...string) []string {
	return append([]string{"-warmup", "20000", "-window", "5000", "-maxsteps", "3", "-json"}, extra...)
}

func TestChaosCheckpointResumeBitIdentical(t *testing.T) {
	t.Cleanup(parallel.ResetAllMemos)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	// Uninterrupted baseline, memo-cold.
	parallel.ResetAllMemos()
	var base, baseErr bytes.Buffer
	if err := run(context.Background(), chaosArgs(), &base, &baseErr); err != nil {
		t.Fatalf("baseline: %v\n%s", err, baseErr.String())
	}

	// Interrupted run: the fourth evaluation dies at the injected fault
	// point, mid-walk, with the checkpoint rewritten after each of the
	// three that completed.
	parallel.ResetAllMemos()
	restore := faultinject.Arm(faultinject.NewPlan(1, faultinject.Rule{
		Point: "explore.evaluate", After: 3, Msg: "chaos kill",
	}))
	var killed, killedErr bytes.Buffer
	err := run(context.Background(), chaosArgs("-checkpoint", ckpt), &killed, &killedErr)
	restore()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("interrupted run: err = %v, want the injected fault", err)
	}
	// Even interrupted, stdout must carry a decodable partial document.
	var partial lpm.ExploreReport
	if err := json.Unmarshal(killed.Bytes(), &partial); err != nil {
		t.Fatalf("interrupted output is not valid JSON: %v\n%s", err, killed.String())
	}
	if !partial.Partial || partial.Error == "" {
		t.Fatalf("interrupted doc: partial=%v error=%q, want it marked partial with the cause",
			partial.Partial, partial.Error)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint survived the kill: %v", err)
	}

	// Resume with a cold memo — a fresh process — and compare against
	// the uninterrupted baseline byte for byte.
	parallel.ResetAllMemos()
	var resumed, resumedErr bytes.Buffer
	if err := run(context.Background(), chaosArgs("-resume", ckpt), &resumed, &resumedErr); err != nil {
		t.Fatalf("resume: %v\n%s", err, resumedErr.String())
	}
	if strings.Contains(resumedErr.String(), "starting cold") {
		t.Fatalf("resume fell back to a cold start:\n%s", resumedErr.String())
	}
	if !bytes.Equal(base.Bytes(), resumed.Bytes()) {
		t.Fatalf("resumed output differs from the uninterrupted run:\n--- baseline\n%s--- resumed\n%s",
			base.String(), resumed.String())
	}
}

func TestChaosTornCheckpointWriteKeepsLastGood(t *testing.T) {
	t.Cleanup(parallel.ResetAllMemos)
	parallel.ResetAllMemos()
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	// Let the first checkpoint land, then kill every later rewrite at
	// the rename — the commit point. The file on disk must remain the
	// last complete checkpoint, never a hybrid.
	restore := faultinject.Arm(faultinject.NewPlan(1, faultinject.Rule{
		Point: "cliutil.atomic.rename", Match: "run.ckpt",
		After: 1, Times: 1 << 20, Msg: "chaos: torn rename",
	}))
	var out, errb bytes.Buffer
	err := run(context.Background(), chaosArgs("-checkpoint", ckpt), &out, &errb)
	restore()
	if err != nil {
		// Checkpoint failures are warnings, not run failures.
		t.Fatalf("run failed on checkpoint-write faults: %v\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "checkpoint:") {
		t.Fatalf("failed checkpoint rewrites were not reported on stderr:\n%s", errb.String())
	}
	var ck lpm.Checkpoint
	if err := resilience.LoadCheckpoint(ckpt, &ck); err != nil {
		t.Fatalf("surviving checkpoint does not decode: %v", err)
	}
	if ck.Schema != lpm.CheckpointSchema || len(ck.Memos["explore.sim"]) == 0 {
		t.Fatalf("surviving checkpoint is not the last good one: schema=%q memos=%d",
			ck.Schema, len(ck.Memos))
	}
}

func TestChaosResumeRefusesMismatchedFlags(t *testing.T) {
	t.Cleanup(parallel.ResetAllMemos)
	parallel.ResetAllMemos()
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	var out, errb bytes.Buffer
	if err := run(context.Background(), chaosArgs("-checkpoint", ckpt), &out, &errb); err != nil {
		t.Fatalf("checkpointed run: %v\n%s", err, errb.String())
	}
	// A different -window changes what the cached results mean.
	args := []string{"-warmup", "20000", "-window", "6000", "-maxsteps", "3", "-json", "-resume", ckpt}
	err := run(context.Background(), args, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "run key mismatch") {
		t.Fatalf("resume under different flags: err = %v, want a run key mismatch", err)
	}
}

// TestResumeRefusesV1Checkpoint: a v1 checkpoint holds results whose
// instruction-unit windows re-ran the warm-up, so -resume must refuse it
// rather than seed the memos with them. The schema is checked before the
// run key.
func TestResumeRefusesV1Checkpoint(t *testing.T) {
	t.Cleanup(parallel.ResetAllMemos)
	parallel.ResetAllMemos()
	ckpt := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := resilience.SaveCheckpoint(ckpt, lpm.Checkpoint{Schema: "lpm-checkpoint/v1", Tool: "lpmexplore"}); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	err := run(context.Background(), chaosArgs("-resume", ckpt), &out, &errb)
	if err == nil || !strings.Contains(err.Error(), `unsupported schema "lpm-checkpoint/v1"`) {
		t.Fatalf("resume from a v1 checkpoint: err = %v, want an unsupported schema refusal", err)
	}
}

func TestChaosCancelledContextStillEmitsPartialDoc(t *testing.T) {
	t.Cleanup(parallel.ResetAllMemos)
	parallel.ResetAllMemos()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // SIGINT before the first simulation finishes

	var out, errb bytes.Buffer
	err := run(ctx, chaosArgs(), &out, &errb)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	var rep lpm.ExploreReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("cancelled run's output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Schema != lpm.ExploreSchema || !rep.Partial {
		t.Fatalf("cancelled doc: schema=%q partial=%v, want a partial %s document",
			rep.Schema, rep.Partial, lpm.ExploreSchema)
	}
}
