package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpm"
	"lpm/internal/parallel"
)

// The smoke tests exercise the report CLI in-process: the cheap text
// experiments, the versioned JSON document (with per-layer snapshots
// under -observe), and the error paths.

func TestRunTextFig1(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "fig1"}, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	for _, want := range []string{"==== fig1 ====", "C-AMAT", "Eq. 3 check"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("fig1 report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunJSONFig1(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-json", "-experiment", "fig1"}, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	var rep lpm.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Schema != lpm.ReportSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, lpm.ReportSchema)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Name != "fig1" || rep.Experiments[0].Fig1 == nil {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
	if rep.Experiments[0].Fig1.Measured.CAMAT != 1.6 {
		t.Fatalf("fig1 measured C-AMAT = %v, want 1.6", rep.Experiments[0].Fig1.Measured.CAMAT)
	}
}

func TestRunJSONTable1Observed(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-json", "-quick", "-observe", "-experiment", "table1"}, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	var rep lpm.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(rep.Experiments) != 1 || len(rep.Experiments[0].Table1) != 5 {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
	for _, row := range rep.Experiments[0].Table1 {
		if row.Layers == nil || len(row.Layers.Metrics) == 0 {
			t.Fatalf("row %s: -observe produced no per-layer snapshot", row.Name)
		}
		if row.Layers.Counter("l1.0.accesses") == 0 {
			t.Fatalf("row %s: snapshot recorded zero L1 accesses", row.Name)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-json", "-experiment", "nonsense"}, &out, &errb); err == nil {
		t.Fatal("unknown experiment did not error in JSON mode")
	}
	if err := run(context.Background(), []string{"-nosuchflag"}, &out, &errb); err == nil {
		t.Fatal("unknown flag did not error")
	}
	// In text mode an unknown experiment simply selects nothing; that is
	// the historical behaviour and must not start failing.
	out.Reset()
	if err := run(context.Background(), []string{"-experiment", "nonsense"}, &out, &errb); err != nil {
		t.Fatalf("text mode with unknown experiment errored: %v", err)
	}
	if strings.Contains(out.String(), "====") {
		t.Fatalf("unknown experiment ran something:\n%s", out.String())
	}
}

var update = flag.Bool("update", false, "rewrite testdata/quick.txt")

// TestGoldenQuickText pins the whole -quick text report byte for byte;
// `go test -run Golden -update` rewrites it after an intentional change.
func TestGoldenQuickText(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-quick"}, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	path := filepath.Join("testdata", "quick.txt")
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
		t.Fatalf("text report drifted from %s (rerun with -update if intentional):\n%s", path, out.String())
	}
}

// The text report renders the JSON document's interval payload, so the
// sample count reaches it as it reaches -json.
func TestRunTextIntervalSamples(t *testing.T) {
	args := []string{"-experiment", "interval", "-interval-samples", "5000"}
	var text, doc, errb bytes.Buffer
	if err := run(context.Background(), args, &text, &errb); err != nil {
		t.Fatalf("text run: %v\n%s", err, errb.String())
	}
	if err := run(context.Background(), append(args, "-json"), &doc, &errb); err != nil {
		t.Fatalf("json run: %v\n%s", err, errb.String())
	}
	rep, err := lpm.DecodeReport(doc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 1 || len(rep.Experiments[0].Interval) == 0 {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
	for _, r := range rep.Experiments[0].Interval {
		if want := fmt.Sprintf("vs  %.4f\n", r.Simulated); !strings.Contains(text.String(), want) {
			t.Fatalf("%s: text lacks the 5000-sample value %q:\n%s", r.Scenario, want, text.String())
		}
	}
}

// cancelWriter cancels the run's context on its first write, as a SIGINT
// arriving while the first section prints would.
type cancelWriter struct {
	bytes.Buffer
	cancel context.CancelFunc
}

func (w *cancelWriter) Write(b []byte) (int, error) {
	w.cancel()
	return w.Buffer.Write(b)
}

func TestRunTextInterrupted(t *testing.T) {
	var fig1, errb bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-experiment", "fig1"}, &fig1, &errb); err != nil {
		t.Fatalf("fig1 run: %v\n%s", err, errb.String())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelWriter{cancel: cancel}
	err := run(ctx, []string{"-quick", "-experiment", "fig1,table1"}, w, &errb)
	if want := "interrupted: completed [fig1], aborted [table1]"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if !bytes.Equal(w.Bytes(), fig1.Bytes()) {
		t.Fatalf("interrupted run printed more than the fig1 section:\n%s", w.String())
	}
}

// The per-experiment build loop must merge into exactly the document one
// BuildReportCtx call over the same list produces.
func TestRunJSONMatchesSingleBuild(t *testing.T) {
	exps := []string{"fig1", "table1", "timeline"}
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-json", "-quick", "-experiment", strings.Join(exps, ",")}, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	rep, err := lpm.BuildReportCtx(context.Background(), lpm.ReportOptions{Scale: lpm.QuickScale(), Experiments: exps})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("merged document differs from one BuildReportCtx call:\n--- cli\n%s--- single\n%s", out.String(), want.String())
	}
}

// The experiments run at once under the -workers budget; the document
// must not depend on how many simulations that budget allows.
func TestRunJSONIdenticalAcrossWorkers(t *testing.T) {
	t.Cleanup(func() { lpm.SetWorkers(0); parallel.ResetAllMemos() })
	base := []string{"-json", "-quick", "-experiment", "fig1,table1,casestudy1,timeline"}
	var docs []string
	for _, w := range []string{"1", "2", "4"} {
		parallel.ResetAllMemos()
		var out, errb bytes.Buffer
		if err := run(context.Background(), append(base, "-workers", w), &out, &errb); err != nil {
			t.Fatalf("-workers %s: %v\n%s", w, err, errb.String())
		}
		docs = append(docs, out.String())
	}
	if docs[1] != docs[0] || docs[2] != docs[0] {
		t.Fatal("-quick -json differs across -workers 1, 2 and 4")
	}
}

// cancelOnWriter cancels the run's context once its output holds
// marker, as a SIGINT arriving while that section prints would.
type cancelOnWriter struct {
	bytes.Buffer
	marker string
	cancel context.CancelFunc
}

func (w *cancelOnWriter) Write(b []byte) (int, error) {
	n, err := w.Buffer.Write(b)
	if strings.Contains(w.String(), w.marker) {
		w.cancel()
	}
	return n, err
}

// A checkpoint written while later experiments are still running —
// table1 is saved on delivery while casestudy1's walk runs, and the
// interrupted run saves again — resumes to the document a plain run
// prints, replaying simulations instead of redoing them.
func TestRunTextCheckpointMidOverlapResumes(t *testing.T) {
	t.Cleanup(parallel.ResetAllMemos)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	base := []string{"-quick", "-experiment", "fig1,table1,casestudy1"}

	parallel.ResetAllMemos()
	var plain, errb bytes.Buffer
	if err := run(context.Background(), base, &plain, &errb); err != nil {
		t.Fatalf("plain run: %v\n%s", err, errb.String())
	}
	_, coldMisses := lpm.SimCacheStats()

	parallel.ResetAllMemos()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelOnWriter{marker: "==== table1", cancel: cancel}
	err := run(ctx, append(base, "-checkpoint", ckpt), w, &errb)
	if want := "interrupted: completed [fig1 table1], aborted [casestudy1]"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}

	parallel.ResetAllMemos()
	var resumed bytes.Buffer
	if err := run(context.Background(), append(base, "-resume", ckpt), &resumed, &errb); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, errb.String())
	}
	if !bytes.Equal(plain.Bytes(), resumed.Bytes()) {
		t.Fatalf("resumed report differs from the plain run:\n--- plain\n%s--- resumed\n%s", plain.String(), resumed.String())
	}
	if _, misses := lpm.SimCacheStats(); misses >= coldMisses {
		t.Fatalf("resumed run simulated %d times, the cold run %d: the checkpoint replayed nothing", misses, coldMisses)
	}
}
