package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpm"
)

// The smoke tests drive the exploration CLI in-process with tiny
// per-evaluation budgets and a short step bound.

func TestRunText(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-warmup", "20000", "-window", "5000", "-maxsteps", "2"}
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	for _, want := range []string{"design space:", "final configuration:", "simulations="} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunJSONObserve(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-warmup", "20000", "-window", "5000", "-maxsteps", "3", "-json", "-observe"}
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	if strings.Contains(out.String(), "design space:") {
		t.Fatalf("JSON mode printed the text preamble:\n%s", out.String())
	}
	var rep lpm.ExploreReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Schema != lpm.ExploreSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, lpm.ExploreSchema)
	}
	if rep.Workload != "410.bwaves" || rep.Start != "A" || rep.FinalPoint == "" {
		t.Fatalf("report inputs = %+v", rep)
	}
	if len(rep.Steps) == 0 || len(rep.Steps) > 3 {
		t.Fatalf("steps = %d, want 1..3", len(rep.Steps))
	}
	if rep.Evaluations == 0 || rep.SpaceSize == 0 {
		t.Fatalf("evaluations/space = %d/%d", rep.Evaluations, rep.SpaceSize)
	}
	if rep.Final.Obs == nil || rep.Final.Obs.Counter("l1.0.accesses") == 0 {
		t.Fatalf("-observe produced no per-layer snapshot on the final measurement")
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-start", "Z"}, &out, &errb); err == nil {
		t.Fatal("unknown start configuration did not error")
	}
	if err := run(context.Background(), []string{"-workload", "no.such"}, &out, &errb); err == nil {
		t.Fatal("unknown workload did not error")
	}
	err := run(context.Background(), []string{"-grain", "Coarse"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "fine") || !strings.Contains(err.Error(), "coarse") {
		t.Fatalf("-grain Coarse: err = %v, want an error naming fine and coarse", err)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/explore.txt")

// TestGoldenExploreText pins a short coarse-grain walk's text byte for
// byte; `go test -run Golden -update` rewrites it after an intentional
// change.
func TestGoldenExploreText(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-warmup", "20000", "-window", "5000", "-maxsteps", "6", "-grain", "coarse", "-start", "C"}
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	path := filepath.Join("testdata", "explore.txt")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("text drifted from %s (rerun with -update if intentional):\n%s", path, out.String())
	}
}
