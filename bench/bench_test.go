package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartile rule must be the one the driver applies — Python's
// statistics.quantiles(values, n=4), "exclusive" — or the spread the
// benchmark prints is not the spread it is accepted on.
func TestQuantilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	s := summarize(ten)
	if !near(s.Q1, 2.75) || !near(s.Med, 5.5) || !near(s.Q3, 8.25) || s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("summarize(1..10) = %+v", s)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if s := summarize([]float64{3, 1, 2}); !near(s.Q1, 1) || !near(s.Med, 2) || !near(s.Q3, 3) {
		t.Fatalf("summarize(1..3) = %+v", s)
	}
	if got := summarize([]float64{7}); got.Q1 != 7 || got.Med != 7 || got.Q3 != 7 || got.spread() != 0 {
		t.Fatalf("single sample: %+v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("an empty sample's median must be NaN, not 0")
	}
}

// One preempted slice must not move the statistic the benchmark keeps.
func TestMedianIgnoresInjectedOutlier(t *testing.T) {
	xs := make([]float64, 61)
	for i := range xs {
		xs[i] = 40 + float64(i%5)
	}
	clean := summarize(xs)
	xs[17] = 40_000 // a slice that sat out a scheduling burst
	dirty := summarize(xs)
	if clean.Med != dirty.Med || !near(clean.Q1, dirty.Q1) {
		t.Fatalf("outlier moved the median: %+v -> %+v", clean, dirty)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum/float64(len(xs)) < 600 {
		t.Fatalf("the mean should have been dragged: %v", sum/float64(len(xs)))
	}
	if dirty.spread() > 0.1 {
		t.Fatalf("spread %v after one outlier", dirty.spread())
	}
}

// The quietest tenth of a run must be what is reported when a burst of
// host noise covers most, but not all, of it.
func TestQuietestWindowRejectsBurst(t *testing.T) {
	const span = 10 * time.Second
	var ops []timed
	for i := 0; i < 250; i++ { // one op per 40 ms
		end := time.Duration(i+1) * 40 * time.Millisecond
		v := 40.0 + float64(i%3)
		if end >= 2*time.Second && end <= 9*time.Second {
			v *= 1.3 // seven seconds of a 30% slowdown
		}
		ops = append(ops, timed{end, v})
	}
	all := make([]float64, len(ops))
	for i, o := range ops {
		all[i] = o.v
	}
	if m := median(all); m < 50 {
		t.Fatalf("the plain median should have moved with the burst: %v", m)
	}
	vals, perSec := quietest(ops, span)
	if m := median(vals); m < 40 || m > 42 {
		t.Fatalf("quietest window median %v, want the undisturbed 41", m)
	}
	// An operation belongs to the window it ended in: the one ending
	// exactly at 1 s opens the second window.
	if len(vals) != 24 || !near(perSec, 24) {
		t.Fatalf("quietest window holds %d ops at %v/s, want 24 at 24/s", len(vals), perSec)
	}
	// Too few operations to fill windows: the whole interval is used.
	few := ops[:20]
	vals, perSec = quietest(few, span)
	if len(vals) != 20 || !near(perSec, 2) {
		t.Fatalf("short sample: %d ops at %v/s", len(vals), perSec)
	}
	// A thin last window (the tail of a closed loop) is not a candidate
	// even though its median is the lowest.
	thin := append([]timed(nil), ops...)
	for i := range thin {
		if thin[i].end > 8*time.Second {
			thin[i].end = 7900 * time.Millisecond
		}
	}
	thin = append(thin, timed{9500 * time.Millisecond, 1})
	if vals, _ := quietest(thin, span); median(vals) < 40 {
		t.Fatalf("a one-op window was chosen: %v", vals)
	}
}

// A percentile is reported only with ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		label string
	}{{99, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}} {
		if _, label := tail(mk(c.n), 99, 90); label != c.label {
			t.Errorf("tail of %d samples is %s, want %s", c.n, label, c.label)
		}
	}
	if v, _ := tail(mk(1000), 99, 90); v < 989 || v > 991 {
		t.Errorf("p99 of 1..1000 = %v", v)
	}
}

func TestCatalogueIsConsistent(t *testing.T) {
	if err := checkCatalogue(); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, d := range perLayer() {
		layers[d.Layer] = true
		if !strings.HasPrefix(d.Name, d.Layer+".") && d.Layer != "resilience" {
			t.Errorf("metric %s does not carry its layer %s", d.Name, d.Layer)
		}
	}
	// Every layer the issue names is measured.
	for _, l := range []string{"trace", "cpu", "cache", "dram", "noc", "coherence", "chip", "analyzer", "obs",
		"parallel", "lpm", "explore", "sched", "interval", "resilience", "fabric", "ctrl"} {
		if !layers[l] {
			t.Errorf("no per-layer metric for %s", l)
		}
	}
	// Every workload's traced pass measures something, and setup_s, the
	// one metric whose spread the driver exempts, carries the largest
	// bound.
	for _, w := range workloads() {
		n := 0
		for _, d := range perLayer() {
			if d.appliesTo(w.Name) {
				n++
			}
		}
		if n == 0 {
			t.Errorf("workload %s has no per-layer metric", w.Name)
		}
	}
	for _, d := range endToEnd() {
		if d.Bound > bound {
			t.Errorf("%s bound %v exceeds setup_s's", d.Name, d.Bound)
		}
	}
}

// BENCHMARK.json is generated from the catalogue; the committed file
// must be exactly that, and must survive a decode/encode round trip
// with no key gained or lost.
func TestManifestRoundTrip(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale: regenerate with `go run ./bench -write-manifest`")
	}
	if len(got) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, contract allows 64 KiB", len(got))
	}
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), got) {
		t.Fatal("manifest does not round-trip")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(got, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("manifest lacks %s", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("manifest has %d keys, contract names 6", len(keys))
	}
}

// A run must refuse to finish when what it emitted and what the
// catalogue declares disagree, in either direction.
func TestFinishEnforcesCatalogue(t *testing.T) {
	full := func() *result {
		r := newResult(wEngineCPU, false)
		for _, d := range endToEnd() {
			r.set(d.Name, 1.5)
		}
		r.ops(3)
		return r
	}
	out, err := full().finish()
	if err != nil || !out.Correct || out.Attempted != 3 || len(out.Metrics) != len(endToEnd()) {
		t.Fatalf("complete result refused: %v %+v", err, out)
	}
	if out.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("unit not carried: %+v", out.Metrics["setup_s"])
	}
	r := full()
	delete(r.values, "mem_mb")
	if _, err := r.finish(); err == nil {
		t.Error("missing declared metric accepted")
	}
	r = full()
	r.set("made_up", 1)
	if _, err := r.finish(); err == nil {
		t.Error("undeclared metric accepted")
	}
	r = full()
	r.set("op_ms_p50", 0)
	if _, err := r.finish(); err == nil {
		t.Error("zero end-to-end metric accepted")
	}
	r = full()
	r.fail("boom")
	if out, err := r.finish(); err != nil || out.Correct || out.Failed != 1 {
		t.Errorf("failed operation not reported: %v %+v", err, out)
	}
	// A traced run reports 0 for layers the workload bypasses and may
	// not measure what the catalogue says it bypasses.
	tr := newResult(wSweepReal, true)
	for _, d := range perLayer() {
		if d.appliesTo(wSweepReal) {
			tr.set(d.Name, 2)
		}
	}
	tr.ops(1)
	out, err = tr.finish()
	if err != nil || len(out.Metrics) != len(perLayer()) || out.Metrics["cpu.share"].Value != 0 {
		t.Fatalf("traced result: %v", err)
	}
	tr.set("cpu.share", 0.5)
	if _, err := tr.finish(); err == nil {
		t.Error("metric of a bypassed layer accepted")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "chip.mcycles_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * k
		}
		return out
	}
	if r := judge(lower, base, shift(1.05)); r.verdict != verdictOK {
		t.Errorf("5%% slower within a 10%% bound: %s", r.verdict)
	}
	if r := judge(lower, base, shift(1.2)); r.verdict != verdictRegression || r.change < 0.19 {
		t.Errorf("20%% slower: %s %+v", r.verdict, r.change)
	}
	if r := judge(higher, base, shift(0.8)); r.verdict != verdictRegression {
		t.Errorf("20%% less throughput: %s", r.verdict)
	}
	if r := judge(higher, base, shift(1.2)); r.verdict != verdictOK || r.change > 0 {
		t.Errorf("20%% more throughput: %s %v", r.verdict, r.change)
	}
	noisy := []float64{80, 125, 90, 118, 100, 70, 130, 95, 110, 85}
	if r := judge(lower, base, noisy); r.verdict != verdictUnresolved {
		t.Errorf("spread wider than the bound must be unresolved, got %s", r.verdict)
	}
	// ... unless every run of b beats every run of a.
	if r := judge(lower, noisy, shift(0.5)); r.verdict != verdictOK {
		t.Errorf("every run better: %s", r.verdict)
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(scale float64, failed int) *ResultsFile {
		rf := &ResultsFile{Schema: resultsSchema}
		for _, w := range workloads() {
			for seed := uint64(1); seed <= 5; seed++ {
				rf.Runs = append(rf.Runs, ResultRun{Workload: w.Name, Seed: seed, Attempted: 10, Failed: failed,
					Metrics: map[string]float64{"setup_s": 0.2, "op_ms_p50": 10 * scale * (1 + 0.001*float64(seed)),
						"mem_mb": 30}})
			}
		}
		return rf
	}
	if !compareFiles(io.Discard, mk(1, 0), mk(1.02, 0)) {
		t.Error("2% drift refused")
	}
	var out bytes.Buffer
	if compareFiles(&out, mk(1, 0), mk(1.3, 0)) || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("30%% regression accepted:\n%s", out.String())
	}
	if compareFiles(io.Discard, mk(1, 0), mk(1, 1)) {
		t.Error("a rise in failed operations accepted")
	}
	if compareFiles(io.Discard, &ResultsFile{}, &ResultsFile{}) {
		t.Error("empty comparison accepted")
	}
}

// The rig's arithmetic: with every timed region costing o on top of
// the layer inside it, the layers' self times must come back exactly
// and sum to the untimed cycle.
func TestRigSelfTimesRecoverLayers(t *testing.T) {
	present := []int{layerCPU, layerL1, layerL2, layerMem}
	truth := map[int]float64{layerCPU: 120, layerL1: 60, layerL2: 15, layerMem: 25}
	const (
		o       = 55.0
		next    = 100.0 // one generator call
		perCyc  = 0.5   // generator calls per cycle
		samples = 1000
		cycles  = 100_000.0
		pair    = 90.0
	)
	// The cpu layer's span contains the generator's time.
	s := rawSlice{sum: make([]int64, len(present)+1), n: make([]int64, len(present)+1)}
	var cycle float64
	for j, l := range present {
		span := truth[l]
		if l == layerCPU {
			span += next * perCyc
		}
		cycle += span
		s.n[j] = samples
		s.sum[j] = int64((span + o) * samples)
	}
	s.genCycles = samples
	s.genCalls = int64(perCyc * samples)
	s.genNS = int64((next + o) * perCyc * samples)
	pairs := float64(len(present)*samples) + perCyc*samples
	ns, r, gotO, nextNS, ok := s.selfTimes(present, cycle*cycles+pairs*pair, cycles, pair)
	if !ok {
		t.Fatal("complete slice refused")
	}
	if !near(r, cycle) || !near(gotO, o) || !near(nextNS, next) {
		t.Fatalf("cycle %v (want %v), overhead %v (want %v), next %v (want %v)", r, cycle, gotO, o, nextNS, next)
	}
	var sum float64
	for _, l := range append(present, layerTrace) {
		want := truth[l]
		if l == layerTrace {
			want = next * perCyc
		}
		if !near(ns[l], want) {
			t.Errorf("%s self time %v, want %v", layerNames[l], ns[l], want)
		}
		sum += ns[l]
	}
	if !near(sum, cycle) {
		t.Errorf("self times sum to %v, cycle is %v", sum, cycle)
	}
	s.n[2] = 0
	if _, _, _, _, ok := s.selfTimes(present, 1, 1, 1); ok {
		t.Error("slice with an unsampled layer accepted")
	}
}

// The in-process workloads, at a fraction of a second, through the same
// path the driver uses: every correctness check on, and what they emit
// checked against the catalogue by finish. No timing is asserted.
func TestInProcessWorkloadsEmitTheCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator for about two seconds")
	}
	root := t.TempDir()
	for _, c := range []struct {
		workload string
		traced   bool
	}{{wEngineCPU, false}, {wEngineCPU, true}, {wSweepNoop, false}} {
		wd, _ := workloadByName(c.workload)
		rc := &runCtx{workload: c.workload, seed: 7, seconds: 0.2, traced: c.traced, smoke: true, root: root}
		var table bytes.Buffer
		line, err := runOne(rc, wd, &table)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", c.workload, c.traced, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s traced=%v: %+v\n%s", c.workload, c.traced, line, table.String())
		}
		if want := len(metricSet(c.traced)); len(line.Metrics) != want {
			t.Errorf("%s traced=%v: %d metrics, catalogue declares %d", c.workload, c.traced, len(line.Metrics), want)
		}
		for _, d := range metricSet(c.traced) {
			if !strings.Contains(table.String(), d.Name) && d.appliesTo(c.workload) {
				t.Errorf("%s: table does not print %s", c.workload, d.Name)
			}
		}
		if c.traced {
			if _, err := os.Stat(root + "/bench/out/trace-" + c.workload + ".jsonl"); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		}
	}
}
