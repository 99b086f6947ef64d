package lpm

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lpm/internal/cliutil"
)

// Golden-file regression tests: the experiment harnesses are fully
// deterministic (content-keyed memoisation, fixed Monte Carlo seed), so
// their QuickScale outputs are pinned byte-for-byte as indented JSON
// under testdata/golden/. Any intentional model or simulator change
// regenerates them with
//
//	go test -run Golden -update ./...

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files")

// goldenJSON marshals v as indented JSON and compares it to (or, with
// -update, rewrites) testdata/golden/<name>.
func goldenJSON(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal %s: %v", name, err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := cliutil.AtomicWriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file %s\nfirst divergence near line %d\nrerun with -update if the change is intentional",
			name, path, firstDiffLine(got, want))
	}
}

// firstDiffLine reports the 1-based line of the first differing byte.
func firstDiffLine(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return bytes.Count(a[:i], []byte("\n")) + 1
}

func TestGoldenTable1(t *testing.T) {
	goldenJSON(t, "table1_quick.json", mustTable1(t, QuickScale(), false))
}

func TestGoldenFig67(t *testing.T) {
	res, err := Fig67Ctx(bg, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON(t, "fig67_quick.json", res.Table)
}

func TestGoldenIntervalStudy(t *testing.T) {
	// A reduced sample count keeps the Monte Carlo run fast; the fixed
	// seed makes it reproducible at any count.
	goldenJSON(t, "interval_50k.json", mustIntervalStudy(t, 50000))
}

// TestGoldenReport pins the lpm-report/v2 document shape itself: schema
// string, experiment envelope, and field names. It uses the two cheap
// experiments so the test exercises BuildReport end to end without
// re-running the simulations pinned above.
func TestGoldenReport(t *testing.T) {
	rep, err := BuildReportCtx(bg, ReportOptions{
		Scale:           QuickScale(),
		Experiments:     []string{"fig1", "interval"},
		IntervalSamples: 50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON(t, "report_fig1_interval.json", rep)
}
