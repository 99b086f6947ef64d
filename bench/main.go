// Command bench is the repository's layered benchmark. It times the
// four things an architect waits for — one simulation, the paper's
// report, a sharded sweep, a run submitted to the control plane — from
// outside, through the public functions and commands each layer already
// exposes, and checks simulated statistics for exact identity instead
// of claiming an accuracy the unvalidated model cannot have.
//
// The driver's contract (one run of one workload; the last line of
// stdout is the result object):
//
//	go run ./bench --workload engine_mem --seed 3 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced pass that produces the per-layer metrics and
// writes its spans to bench/out/trace-<workload>.jsonl.
//
// For people:
//
//	go run ./bench                      # every workload, untraced, human table
//	go run ./bench -trace 1             # every workload, traced
//	go run ./bench -runs 10 -out a.json # ten seeds per workload, kept for -compare
//	go run ./bench -compare a.json b.json
//	go run ./bench -smoke               # ~1 s per workload, all correctness checks on
//	go run ./bench -manifest            # print BENCHMARK.json as the catalogue defines it
//
// See bench/README.md for the metric tables and how they interact.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lpm/internal/cliutil"
)

// runCtx is what one run of one workload is given.
type runCtx struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// smoke shrinks fixed-size work (report experiments, sweep size) so
	// every workload finishes in about a second with all checks on.
	smoke bool

	root string // checkout root (the working directory)
	tmp  string // scratch directory of this run, removed at exit
	bin  string // where the binaries under test are built

	res   *result
	spans *spanLog // nil when untraced

	// setup collects the wall-clock of each repeated set-up.
	setup []float64
}

// budget is how long a measurement phase given this share of --seconds
// may run.
func (rc *runCtx) budget(share float64) time.Duration {
	return time.Duration(share * rc.seconds * float64(time.Second))
}

// timeSetup runs fn as one set-up and records its wall-clock.
func (rc *runCtx) timeSetup(fn func() error) error {
	start := time.Now()
	err := fn()
	rc.setup = append(rc.setup, time.Since(start).Seconds())
	return err
}

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median, so the cold first build of a checkout does not become the
// reported figure.
const setupRepeats = 3

// errUsage marks a bad command line.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp), errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (default: all seven, each in its own process)")
		seed     = fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", runSeconds, "how long one run measures")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
		smoke    = fs.Bool("smoke", false, "run every workload for about a second, traced and untraced, with all correctness checks on")
		runs     = fs.Int("runs", 1, "suite mode: runs per workload, seeds seed..seed+runs-1")
		out      = fs.String("out", "", "suite mode: write every run's values to this results file")
		compare  = fs.Bool("compare", false, "compare two results files (a.json b.json); exit 1 on a regression or an unresolved metric")
		showMan  = fs.Bool("manifest", false, "print BENCHMARK.json as generated from the catalogue")
		writeMan = fs.Bool("write-manifest", false, "rewrite BENCHMARK.json from the catalogue")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkCatalogue(); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return errUsage
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be positive")
		return errUsage
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return errUsage
		}
		a, err := readResults(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := readResults(fs.Arg(1))
		if err != nil {
			return err
		}
		if !compareFiles(stdout, a, b) {
			return errors.New("comparison failed: regression or unresolved metric")
		}
		return nil
	case *showMan, *writeMan:
		data, err := manifestJSON()
		if err != nil {
			return err
		}
		if *writeMan {
			root, err := findRoot()
			if err != nil {
				return err
			}
			return cliutil.AtomicWriteFile(filepath.Join(root, "BENCHMARK.json"), data, 0o644)
		}
		_, err = stdout.Write(data)
		return err
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return errUsage
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	if *smoke {
		return runSmoke(root, *seed, stdout, stderr)
	}
	if *workload == "" {
		return runSuite(root, *seed, *seconds, *trace == 1, *runs, *out, stdout, stderr)
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return errUsage
	}
	rc := &runCtx{workload: w.Name, seed: *seed, seconds: *seconds, traced: *trace == 1, root: root}
	line, err := runOne(rc, w, stdout)
	if err != nil {
		return err
	}
	if !rc.traced {
		appendHistory(rc, line)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

// findRoot checks that the working directory is the checkout root: the
// benchmark builds and measures the program there, from source.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	mod, err := os.ReadFile(filepath.Join(wd, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module lpm\n") {
		return "", fmt.Errorf("run from the root of the lpm checkout (no lpm go.mod in %s)", wd)
	}
	if _, err := os.Stat(filepath.Join(wd, "cmd", "lpmreport")); err != nil {
		return "", fmt.Errorf("the program under test is missing: %w", err)
	}
	return wd, nil
}

// runOne executes one workload and returns its result object. The
// human-readable table goes to w ahead of it.
func runOne(rc *runCtx, wd workloadDef, w io.Writer) (outLine, error) {
	rc.res = newResult(rc.workload, rc.traced)
	build := filepath.Join(rc.root, ".bench_build")
	rc.bin = filepath.Join(build, "bin")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return outLine{}, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return outLine{}, err
	}
	rc.tmp = tmp
	defer func() { _ = os.RemoveAll(tmp) }()
	if rc.traced {
		rc.spans = newSpanLog()
	}
	if err := wd.run(rc); err != nil {
		return outLine{}, fmt.Errorf("%s: %w", rc.workload, err)
	}
	if rc.traced {
		out := filepath.Join(rc.root, "bench", "out")
		if err := os.MkdirAll(out, 0o755); err != nil {
			return outLine{}, err
		}
		if err := rc.spans.write(filepath.Join(out, "trace-"+rc.workload+".jsonl")); err != nil {
			return outLine{}, err
		}
	} else {
		rc.res.setMedian("setup_s", rc.setup)
	}
	line, err := rc.res.finish()
	if err != nil {
		return outLine{}, err
	}
	rc.res.print(w, rc.seed, rc.seconds)
	return line, nil
}

// runSmoke runs every workload in-process, untraced then traced, at the
// smallest scale that still exercises every correctness check.
func runSmoke(root string, seed uint64, stdout, stderr io.Writer) error {
	bad := 0
	for _, wd := range workloads() {
		for _, traced := range []bool{false, true} {
			rc := &runCtx{workload: wd.Name, seed: seed, seconds: 1, traced: traced, smoke: true, root: root}
			line, err := runOne(rc, wd, stdout)
			if err != nil {
				return err
			}
			if !line.Correct {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("smoke: %d runs failed a correctness check", bad)
	}
	fmt.Fprintln(stderr, "bench: smoke ok")
	return nil
}

// runSuite runs every workload `runs` times, each run in a child
// process with the driver's command line — so peak RSS and set-up are
// those of one run, exactly as the driver sees them — and optionally
// keeps all values for -compare.
func runSuite(root string, seed uint64, seconds float64, traced bool, runs int, out string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := &ResultsFile{
		Schema:  resultsSchema,
		Commit:  gitCommit(root),
		Date:    time.Now().UTC().Format(time.RFC3339),
		Go:      runtime.Version(),
		NProc:   runtime.NumCPU(),
		Seconds: seconds,
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	// Seeds in the outer loop interleave the workloads, so a burst of
	// host noise lands on one run of several workloads instead of on
	// several runs of one.
	for i := 0; i < runs; i++ {
		for _, wd := range workloads() {
			s := seed + uint64(i)
			cmd := exec.Command(self, "-workload", wd.Name, "-seed", fmt.Sprint(s),
				"-seconds", fmt.Sprint(seconds), "-trace", trace)
			cmd.Dir = root
			cmd.Stderr = stderr
			var buf bytes.Buffer
			cmd.Stdout = &buf
			if err := cmd.Run(); err != nil {
				_, _ = stdout.Write(buf.Bytes())
				return fmt.Errorf("%s seed %d: %w", wd.Name, s, err)
			}
			line, table, err := splitOutput(buf.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wd.Name, s, err)
			}
			if _, err := stdout.Write(table); err != nil {
				return err
			}
			run := ResultRun{Workload: wd.Name, Seed: s, Traced: traced,
				Attempted: line.Attempted, Failed: line.Failed, Metrics: map[string]float64{}}
			for name, m := range line.Metrics {
				run.Metrics[name] = m.Value
			}
			rf.Runs = append(rf.Runs, run)
		}
	}
	if runs > 1 && !traced {
		printSpreads(stdout, rf)
	}
	failed := 0
	for _, r := range rf.Runs {
		failed += r.Failed
	}
	tally, err := json.Marshal(struct {
		Runs   int     `json:"runs"`
		Failed int     `json:"failed_operations"`
		Claim  *string `json:"claim"`
	}{len(rf.Runs), failed, nil})
	if err != nil {
		return err
	}
	if out != "" {
		data, err := json.MarshalIndent(rf, "", " ")
		if err != nil {
			return err
		}
		if err := cliutil.AtomicWriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n", tally)
	return err
}

// splitOutput separates a child's human table from its final result
// object.
func splitOutput(data []byte) (outLine, []byte, error) {
	trimmed := bytes.TrimRight(data, "\n")
	i := bytes.LastIndexByte(trimmed, '\n')
	var line outLine
	if err := json.Unmarshal(trimmed[i+1:], &line); err != nil {
		return line, nil, fmt.Errorf("last line is not a result object: %w", err)
	}
	return line, data[:i+1], nil
}

// printSpreads prints, per workload and end-to-end metric, the median
// and interquartile spread over the suite's runs against the bound —
// the figure the driver accepts or refuses the benchmark on.
func printSpreads(w io.Writer, rf *ResultsFile) {
	samples := rf.e2eSamples()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "-- spread over %d runs per workload (interquartile distance / median; keep it under a third of the bound)\n",
		len(rf.Runs)/len(workloads()))
	for _, wl := range workloads() {
		for _, d := range endToEnd() {
			s := summarize(samples[cell{wl.Name, d.Name}])
			flag := ""
			if d.Name != "setup_s" && s.spread() > d.Bound/3 {
				flag = "  <-- above bound/3"
			}
			fmt.Fprintf(bw, "   %-13s %-12s median=%-12.6g spread=%5.2f%% bound=%4.1f%%%s\n",
				wl.Name, d.Name, s.Med, 100*s.spread(), 100*d.Bound, flag)
		}
	}
	_ = bw.Flush()
}
