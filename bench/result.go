package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// result collects what one run of one workload measured.
type result struct {
	workload string
	traced   bool

	attempted int
	failed    int
	// problems keeps the first few failure descriptions for the human
	// reader; every failure is counted whether or not it is kept.
	problems []string

	values  map[string]float64
	details map[string]summary // quartiles and counts behind medians
	labels  map[string]string  // free-text qualifiers (e.g. which percentile)
}

func newResult(workload string, traced bool) *result {
	return &result{
		workload: workload,
		traced:   traced,
		values:   map[string]float64{},
		details:  map[string]summary{},
		labels:   map[string]string{},
	}
}

// set records a metric value.
func (r *result) set(name string, v float64) { r.values[name] = v }

// setMedian records the median of xs under name and keeps its quartiles
// and sample count beside it.
func (r *result) setMedian(name string, xs []float64) {
	s := summarize(xs)
	r.values[name] = s.Med
	r.details[name] = s
}

// setFastest records op_ms_p50 for the workloads whose operation takes
// seconds, so that a run holds one to three of them: each operation is
// its own window, and the quietest window — the fastest operation — is
// what is reported, for the reason quietest gives.
func setFastest(r *result, ms []float64) {
	s := summarize(ms)
	r.values["op_ms_p50"] = s.Min
	r.details["op_ms_p50"] = s
	r.labels["op_ms_p50"] = fmt.Sprintf("fastest of %d", s.N)
}

// ops counts n attempted operations.
func (r *result) ops(n int) { r.attempted += n }

// fail counts one failed operation: it errored, timed out or failed its
// correctness check, and contributes no latency sample.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// outLine is the contract's result object, the last line of stdout.
type outLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish checks the emitted metrics against the catalogue — every
// declared metric the workload measures must be present and finite,
// nothing undeclared may be emitted, and a layer the workload bypasses
// reports 0 — and renders the result object.
func (r *result) finish() (outLine, error) {
	out := outLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]outMetric{}}
	declared := map[string]bool{}
	for _, d := range metricSet(r.traced) {
		declared[d.Name] = true
		v, ok := r.values[d.Name]
		switch {
		case d.appliesTo(r.workload) && !ok:
			return out, fmt.Errorf("%s: declared metric %s was not measured", r.workload, d.Name)
		case !d.appliesTo(r.workload) && ok:
			return out, fmt.Errorf("%s: metric %s measured but the catalogue says this workload bypasses it", r.workload, d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return out, fmt.Errorf("%s: metric %s is %v", r.workload, d.Name, v)
		case !r.traced && v <= 0:
			return out, fmt.Errorf("%s: end-to-end metric %s is %v, must be positive", r.workload, d.Name, v)
		}
		out.Metrics[d.Name] = outMetric{Value: v, Unit: d.Unit}
	}
	for name := range r.values {
		if !declared[name] {
			return out, fmt.Errorf("%s: emitted metric %s is not in the catalogue", r.workload, name)
		}
	}
	if r.attempted < 1 {
		return out, fmt.Errorf("%s: no operation attempted", r.workload)
	}
	out.Correct = r.failed == 0
	return out, nil
}

// print writes the human-readable table: every metric by name with its
// unit, and the quartiles and sample count next to every median.
func (r *result) print(w io.Writer, seed uint64, seconds float64) {
	pass := "end-to-end (untraced)"
	if r.traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d seconds=%g\n", r.workload, pass, seed, seconds)
	for _, d := range metricSet(r.traced) {
		if !d.appliesTo(r.workload) {
			continue
		}
		line := fmt.Sprintf("  %-32s %14.6g %-11s", d.Name, r.values[d.Name], d.Unit)
		if s, ok := r.details[d.Name]; ok {
			line += fmt.Sprintf("  n=%d q1=%.6g q3=%.6g spread=%.1f%%", s.N, s.Q1, s.Q3, 100*s.spread())
		}
		if l := r.labels[d.Name]; l != "" {
			line += "  " + l
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-32s %14.6g %-11s  attempted=%d failed=%d\n", "fail_frac",
		float64(r.failed)/math.Max(1, float64(r.attempted)), "frac", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

// historyLine is one row of bench/history.jsonl.
type historyLine struct {
	Commit     string             `json:"commit"`
	Date       string             `json:"date"`
	Go         string             `json:"go"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	E2E        map[string]float64 `json:"e2e"`
}

// appendHistory adds the untraced run to bench/history.jsonl, the
// trajectory ROADMAP asks for. History is advisory: a read-only tree
// must not fail the measurement, so errors are reported and dropped.
func appendHistory(rc *runCtx, out outLine) {
	h := historyLine{
		Commit:     gitCommit(rc.root),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   rc.workload,
		Seed:       rc.seed,
		Seconds:    rc.seconds,
		Attempted:  out.Attempted,
		Failed:     out.Failed,
		E2E:        map[string]float64{},
	}
	for k, m := range out.Metrics {
		h.E2E[k] = m.Value
	}
	data, err := json.Marshal(h)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: history:", err)
		return
	}
	f, err := os.OpenFile(filepath.Join(rc.root, "bench", "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: history:", err)
		return
	}
	_, werr := f.Write(append(data, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, "bench: history:", werr)
	}
}

// gitCommit returns the short HEAD hash, or "unknown" outside a git
// checkout (the driver's checkouts are plain directories).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// ResultsFile is what -out writes and -compare reads: every run of a
// suite, so medians and spreads can be recomputed by the reader.
type ResultsFile struct {
	Schema  string      `json:"schema"`
	Commit  string      `json:"commit"`
	Date    string      `json:"date"`
	Go      string      `json:"go"`
	NProc   int         `json:"nproc"`
	Seconds float64     `json:"seconds"`
	Runs    []ResultRun `json:"runs"`
	// Claim is always null: the benchmark measures, it does not argue.
	Claim *string `json:"claim"`
}

// ResultRun is one run of one workload in a ResultsFile.
type ResultRun struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

const resultsSchema = "lpm-bench-results/v1"

func readResults(path string) (*ResultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf ResultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %s", path, rf.Schema, resultsSchema)
	}
	return &rf, nil
}

// cell is one (workload, metric) pairing of a results file.
type cell struct {
	workload, metric string
}

// e2eSamples groups a file's untraced values by workload and metric.
func (rf *ResultsFile) e2eSamples() map[cell][]float64 {
	out := map[cell][]float64{}
	for _, run := range rf.Runs {
		if run.Traced {
			continue
		}
		for _, d := range endToEnd() {
			if v, ok := run.Metrics[d.Name]; ok {
				c := cell{run.Workload, d.Name}
				out[c] = append(out[c], v)
			}
		}
	}
	return out
}

// failFrac sums failed over attempted per workload.
func (rf *ResultsFile) failFrac() map[string]float64 {
	att, bad := map[string]int{}, map[string]int{}
	for _, run := range rf.Runs {
		att[run.Workload] += run.Attempted
		bad[run.Workload] += run.Failed
	}
	out := map[string]float64{}
	for w, n := range att {
		if n > 0 {
			out[w] = float64(bad[w]) / float64(n)
		}
	}
	return out
}

// verdicts of a comparison row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// compareRow is one workload × metric line of -compare.
type compareRow struct {
	cell
	a, b    summary
	bound   float64
	change  float64 // worsening as a share of a's median (negative = better)
	verdict string
}

// judge applies the rule of the choosing-metrics guide: b regresses
// when its median is worse than a's by more than the bound; when either
// side's own spread is wider than the bound the pairing is unresolved —
// not "unchanged" — unless every run of b reads better than every run
// of a. setup_s is judged on its medians alone: the driver exempts its
// spread, because the first run of a checkout builds.
func judge(d metricDef, a, b []float64) compareRow {
	row := compareRow{a: summarize(a), b: summarize(b), bound: d.Bound, verdict: verdictOK}
	sign := 1.0 // worsening direction
	if d.Better == "higher" {
		sign = -1
	}
	if row.a.Med != 0 {
		row.change = sign * (row.b.Med - row.a.Med) / math.Abs(row.a.Med)
	}
	allBetter := row.b.N > 0 && row.a.N > 0 &&
		((d.Better == "lower" && row.b.Max < row.a.Min) || (d.Better == "higher" && row.b.Min > row.a.Max))
	switch {
	case allBetter:
	case d.Name != "setup_s" && (row.a.spread() > d.Bound || row.b.spread() > d.Bound):
		row.verdict = verdictUnresolved
	case row.change > d.Bound:
		row.verdict = verdictRegression
	}
	return row
}

// compareFiles prints the comparison of two results files and reports
// whether b is acceptable against a: no regression, no unresolved
// pairing, and no workload failing more operations than before.
func compareFiles(w io.Writer, a, b *ResultsFile) bool {
	sa, sb := a.e2eSamples(), b.e2eSamples()
	var rows []compareRow
	for _, wl := range workloads() {
		for _, d := range endToEnd() {
			c := cell{wl.Name, d.Name}
			if len(sa[c]) == 0 || len(sb[c]) == 0 {
				continue
			}
			row := judge(d, sa[c], sb[c])
			row.cell = c
			rows = append(rows, row)
		}
	}
	ok := len(rows) > 0
	fmt.Fprintf(w, "%-13s %-12s %14s %14s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "a.median", "b.median", "worse%", "a.iqr%", "b.iqr%", "bound%", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-12s %14.6g %14.6g %8.2f %8.2f %8.2f %7.1f  %s (n=%d,%d)\n",
			r.workload, r.metric, r.a.Med, r.b.Med, 100*r.change,
			100*r.a.spread(), 100*r.b.spread(), 100*r.bound, r.verdict, r.a.N, r.b.N)
		if r.verdict != verdictOK {
			ok = false
		}
	}
	fa, fb := a.failFrac(), b.failFrac()
	names := make([]string, 0, len(fb))
	for wl := range fb {
		names = append(names, wl)
	}
	sort.Strings(names)
	for _, wl := range names {
		v := verdictOK
		if fb[wl] > fa[wl] {
			v = verdictRegression
			ok = false
		}
		fmt.Fprintf(w, "%-13s %-12s %14.6g %14.6g %49s\n", wl, "fail_frac", fa[wl], fb[wl], v)
	}
	return ok
}
