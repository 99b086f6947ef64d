package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpm"
)

// writeDoc marshals a report-shaped JSON literal to a temp file.
func writeDoc(t *testing.T, dir, name, doc string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseDoc = `{
  "schema": "lpm-report/v2",
  "tool": "lpmreport",
  "scale": {"Warmup": 1000, "Window": 500},
  "seed": 42,
  "experiments": [
    {
      "name": "timeline",
      "timeline": [
        {
          "name": "A",
          "point": "p",
          "cpi_exe": 0.5,
          "series": {
            "version": 1, "width": 256, "dropped": 0,
            "windows": [
              {"index": 0, "start": 0, "end": 256, "phase": -1,
               "derived": {"ipc": 1.0, "lpmr1": 2.0, "lpmr2": 1.0, "lpmr3": 0.5}},
              {"index": 1, "start": 256, "end": 512, "phase": -1,
               "derived": {"ipc": 0.9, "lpmr1": 2.5, "lpmr2": 1.2, "lpmr3": 0.6}}
            ]
          }
        }
      ]
    }
  ]
}`

func TestDiffIdenticalReports(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", baseDoc)
	b := writeDoc(t, dir, "b.json", baseDoc)
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{a, b}, &out, &errb); err != nil {
		t.Fatalf("identical reports: %v\n%s", err, errb.String())
	}
	if !strings.Contains(out.String(), "reports match") {
		t.Fatalf("no match line:\n%s", out.String())
	}
}

func TestDiffFindsPerWindowRegression(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", baseDoc)
	changed := strings.Replace(baseDoc, `"lpmr1": 2.5`, `"lpmr1": 4.5`, 1)
	b := writeDoc(t, dir, "b.json", changed)
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{a, b}, &out, &errb)
	if !errors.Is(err, errDifferences) {
		t.Fatalf("err = %v, want errDifferences\n%s", err, out.String())
	}
	want := "experiments[timeline].timeline[A].series.windows[1].derived.lpmr1: 2.5 -> 4.5"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("per-window delta %q missing:\n%s", want, out.String())
	}
}

func TestDiffThresholdSuppression(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", baseDoc)
	changed := strings.Replace(baseDoc, `"lpmr1": 2.5`, `"lpmr1": 2.51`, 1)
	b := writeDoc(t, dir, "b.json", changed)

	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-threshold", "0.05", a, b}, &out, &errb); err != nil {
		t.Fatalf("within-threshold diff reported: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "reports match (1 numeric fields within tolerance)") {
		t.Fatalf("suppression not reported:\n%s", out.String())
	}

	out.Reset()
	if err := run(context.Background(), []string{"-threshold", "0.001", a, b}, &out, &errb); !errors.Is(err, errDifferences) {
		t.Fatalf("above-threshold diff not reported: %v", err)
	}
}

func TestDiffAbsFloor(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", baseDoc)
	changed := strings.Replace(baseDoc, `"lpmr3": 0.6`, `"lpmr3": 0.6000000001`, 1)
	b := writeDoc(t, dir, "b.json", changed)
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-abs", "1e-9", a, b}, &out, &errb); err != nil {
		t.Fatalf("sub-floor noise reported: %v\n%s", err, out.String())
	}
}

func TestDiffAddedAndRemovedPaths(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", baseDoc)
	changed := strings.Replace(baseDoc,
		`{"index": 1, "start": 256, "end": 512, "phase": -1,
               "derived": {"ipc": 0.9, "lpmr1": 2.5, "lpmr2": 1.2, "lpmr3": 0.6}}`,
		`{"index": 1, "start": 256, "end": 512, "phase": -1,
               "derived": {"ipc": 0.9, "lpmr1": 2.5, "lpmr2": 1.2}}`, 1)
	b := writeDoc(t, dir, "b.json", changed)
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{a, b}, &out, &errb); !errors.Is(err, errDifferences) {
		t.Fatalf("missing path not reported: %v", err)
	}
	if !strings.Contains(out.String(), "(only in old)") {
		t.Fatalf("removal line missing:\n%s", out.String())
	}
}

func TestDiffRejectsNonReports(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", baseDoc)
	bad := writeDoc(t, dir, "bad.json", `{"schema": "other/v1"}`)
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{a, bad}, &out, &errb)
	if err == nil || errors.Is(err, errDifferences) {
		t.Fatalf("bad schema accepted: %v", err)
	}
	if err := run(context.Background(), []string{a}, &out, &errb); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("one-arg usage error = %v, want flag.ErrHelp", err)
	}
}

func TestDiffAcceptsV1Documents(t *testing.T) {
	dir := t.TempDir()
	v1 := strings.Replace(baseDoc, lpm.ReportSchema, lpm.ReportSchemaV1, 1)
	a := writeDoc(t, dir, "a.json", v1)
	b := writeDoc(t, dir, "b.json", baseDoc)
	var out, errb bytes.Buffer
	// v1 vs v2 of otherwise-identical content: only the schema line moves.
	err := run(context.Background(), []string{a, b}, &out, &errb)
	if !errors.Is(err, errDifferences) {
		t.Fatalf("err = %v, want errDifferences", err)
	}
	if !strings.Contains(out.String(), "~ schema: lpm-report/v1 -> lpm-report/v2") {
		t.Fatalf("schema diff line missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1 differences") {
		t.Fatalf("expected exactly the schema diff:\n%s", out.String())
	}
}

func TestDiffMaxLines(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", baseDoc)
	changed := baseDoc
	for _, r := range [][2]string{
		{`"ipc": 1.0`, `"ipc": 9.0`},
		{`"lpmr1": 2.0`, `"lpmr1": 9.0`},
		{`"lpmr2": 1.0`, `"lpmr2": 9.0`},
	} {
		changed = strings.Replace(changed, r[0], r[1], 1)
	}
	b := writeDoc(t, dir, "b.json", changed)
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-max", "1", a, b}, &out, &errb); !errors.Is(err, errDifferences) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(out.String(), "and 2 more differences") {
		t.Fatalf("-max elision missing:\n%s", out.String())
	}
}
