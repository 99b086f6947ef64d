package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// TestRunCleanRepo is the end-to-end gate: lpmlint over the real module
// must exit clean (the make/CI lint step depends on this).
func TestRunCleanRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-C", "../..", ".", "./cmd/...", "./internal/...", "./examples/..."}, &out, &errBuf); err != nil {
		t.Fatalf("lpmlint on the repo: %v\nstdout:\n%sstderr:\n%s", err, out.String(), errBuf.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", out.String())
	}
}

// TestRunFindings drives the CLI against a fixture tree and checks the
// findings exit path and output format.
func TestRunFindings(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run(context.Background(), []string{"-C", "../../internal/lint/testdata/src/errcheck", "./..."}, &out, &errBuf)
	if !errors.Is(err, errFindings) {
		t.Fatalf("err = %v, want errFindings\nstdout:\n%s", err, out.String())
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if !strings.Contains(first, ": [errcheck] ") {
		t.Errorf("first line %q does not match file:line:col: [analyzer] message", first)
	}
	if !strings.Contains(errBuf.String(), "finding(s)") {
		t.Errorf("stderr %q lacks the findings summary", errBuf.String())
	}
}

// TestRunPathRestriction checks positional package patterns reach the
// driver: the cmd subtree of the fixture has exactly 3 findings.
func TestRunPathRestriction(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run(context.Background(), []string{"-C", "../../internal/lint/testdata/src/errcheck", "cmd/..."}, &out, &errBuf)
	if !errors.Is(err, errFindings) {
		t.Fatalf("err = %v, want errFindings", err)
	}
	if n := strings.Count(out.String(), "[errcheck]"); n != 3 {
		t.Errorf("got %d findings under cmd/..., want 3:\n%s", n, out.String())
	}
}

func TestList(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"determinism", "maporder", "floateq", "obsdiscipline", "errcheck"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output lacks analyzer %q", name)
		}
	}
}

// TestUnknownAnalyzerFlag: the CLI always runs the whole suite, so an
// analyzer-selection flag is a usage error, as is an unknown -format.
func TestUnknownAnalyzerFlag(t *testing.T) {
	for _, args := range [][]string{{"-enable", "floateq"}, {"-format=json"}} {
		var out, errBuf bytes.Buffer
		err := run(context.Background(), append([]string{"-C", "../.."}, append(args, "./...")...), &out, &errBuf)
		if err == nil || errors.Is(err, errFindings) {
			t.Fatalf("%v: err = %v, want a usage error", args, err)
		}
	}
}

func TestArgPaths(t *testing.T) {
	if got, err := argPaths([]string{"./..."}); err != nil || got != nil {
		t.Errorf("argPaths(./...) = %v, %v; want nil, nil", got, err)
	}
	got, err := argPaths([]string{"internal/sim/...", "cmd"})
	if err != nil || len(got) != 2 || got[0] != "internal/sim" || got[1] != "cmd" {
		t.Errorf("argPaths = %v, %v", got, err)
	}
	if _, err := argPaths([]string{"internal", "-list"}); err == nil {
		t.Error("trailing flag accepted, want error")
	}
}
