package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lpm/internal/ctrl"
	"lpm/internal/obs/timeseries"
)

// The smoke tests drive run(context.Background(), ) in-process at tiny simulation budgets:
// they pin the CLI contract (flags parse, reports print, errors return)
// without the cost of a real measurement run.

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out, &errb); err != nil {
		t.Fatalf("run -list: %v\n%s", err, errb.String())
	}
	if !strings.Contains(out.String(), "403.gcc") {
		t.Fatalf("-list output lacks built-in workloads:\n%s", out.String())
	}
}

func TestRunReport(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-workload", "403.gcc", "-instructions", "2000", "-warmup", "3000"}
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	for _, want := range []string{"workload   403.gcc", "LPMR1=", "data stall per instruction"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "metrics (snapshot") {
		t.Fatalf("metrics printed without -metrics:\n%s", out.String())
	}
}

func TestRunMetrics(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-workload", "403.gcc", "-instructions", "2000", "-warmup", "3000", "-metrics"}
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("run -metrics: %v\n%s", err, errb.String())
	}
	for _, want := range []string{"metrics (snapshot v", "l1.0.accesses", "cpu.0.rob_occupancy", "dram.reads"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-metrics output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "no.such"}, &out, &errb); err == nil {
		t.Fatal("unknown workload did not error")
	}
	if err := run(context.Background(), []string{"-nosuchflag"}, &out, &errb); err == nil {
		t.Fatal("unknown flag did not error")
	}
	// Budgets over the cap are refused before anything runs: a warm-up
	// this large would wrap the run's cycle budget, and the window would
	// be measured after a truncated warm-up.
	for _, args := range [][]string{
		{"-workload", "401.bzip2", "-instructions", "1000", "-warmup", "30744573456182587"},
		{"-workload", "401.bzip2", "-instructions", "100000001", "-warmup", "1000"},
	} {
		out.Reset()
		if err := run(context.Background(), args, &out, &errb); err == nil || !strings.Contains(err.Error(), "over the cap") {
			t.Fatalf("run %v: err %v, want the over-cap error (stdout %q)", args, err, out.String())
		}
	}
}

func TestRunTimelineSummary(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-workload", "403.gcc", "-instructions", "2000", "-warmup", "3000",
		"-timeline", "-tswindow", "512"}
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("run -timeline: %v\n%s", err, errb.String())
	}
	for _, want := range []string{"timeline", "windows (width=512", "lpmr1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-timeline output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestServeEndpoints drives the exposition handler the way -serve wires
// it, including concurrent scrapes while windows are still being
// published — the race-detector CI job leans on this test.
func TestServeEndpoints(t *testing.T) {
	hub := ctrl.NewHub()
	srv := httptest.NewServer(ctrl.NewExpoMux(hub))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// Before any window: both endpoints respond, /timeline is valid JSON.
	body, ctype := get("/timeline")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/timeline content type %q", ctype)
	}
	var doc ctrl.TimelineDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("empty /timeline not JSON: %v\n%s", err, body)
	}
	if doc.Schema != ctrl.TimelineSchema || doc.Done {
		t.Fatalf("empty timeline doc: %+v", doc)
	}

	// Publish windows from a "simulation" goroutine while scraping.
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for i := 0; i < 50; i++ {
			w := timeseries.Window{Index: i, Start: uint64(i * 100), End: uint64(i*100 + 100)}
			w.Derived.LPMR1 = 1 + float64(i)
			hub.Publish(w)
		}
		hub.Done()
	}()
	for i := 0; i < 20; i++ {
		get("/metrics")
		get("/timeline")
	}
	<-stop

	body, ctype = get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	for _, want := range []string{
		"# TYPE lpm_timeline_lpmr1 gauge",
		"lpm_timeline_lpmr1 50",
		"lpm_timeline_stall_cycles{bucket=\"busy\"}",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}

	body, _ = get("/timeline")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/timeline not JSON: %v", err)
	}
	if !doc.Done || len(doc.Series.Windows) != 50 {
		t.Fatalf("final timeline doc: done=%v windows=%d", doc.Done, len(doc.Series.Windows))
	}
}

// TestRunServeMidRun starts a real -serve run and scrapes it while the
// simulation executes, pinning the acceptance criterion end to end.
func TestRunServeMidRun(t *testing.T) {
	out := &syncWriter{buf: &bytes.Buffer{}}
	var errb bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{"-workload", "429.mcf", "-instructions", "20000",
			"-warmup", "40000", "-serve", "127.0.0.1:0", "-serve-hold", "2s",
			"-tswindow", "256"}, out, &errb)
	}()

	// Wait for the server address to appear on stdout.
	var addr string
	for i := 0; i < 200 && addr == ""; i++ {
		time.Sleep(10 * time.Millisecond)
		for _, line := range strings.Split(out.string(), "\n") {
			if rest, ok := strings.CutPrefix(line, "serving /metrics and /timeline on http://"); ok {
				addr = strings.TrimSpace(rest)
			}
		}
	}
	if addr == "" {
		t.Fatalf("server address never printed:\n%s", out.string())
	}

	// Scrape until a window shows up (mid-run or during the hold).
	deadline := time.Now().Add(5 * time.Second)
	seen := false
	for time.Now().Before(deadline) && !seen {
		resp, err := http.Get("http://" + addr + "/timeline")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var doc ctrl.TimelineDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/timeline not JSON: %v", err)
		}
		if doc.Schema != ctrl.TimelineSchema {
			t.Fatalf("/timeline schema %q", doc.Schema)
		}
		seen = len(doc.Series.Windows) > 0
	}
	if !seen {
		t.Fatal("no timeline windows observed over 5s of scraping")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	promText, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(promText), "lpm_timeline_lpmr1") {
		t.Fatalf("/metrics lacks timeline gauges:\n%s", promText)
	}
	if err := <-done; err != nil {
		t.Fatalf("run -serve: %v\n%s", err, errb.String())
	}
}

// syncWriter makes a bytes.Buffer safe to share between the run(context.Background(), )
// goroutine and the test's polling reads.
type syncWriter struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) string() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestJSONMatchesControlPlaneDocument: lpmrun and the control plane's
// SimRunner are one pipeline (lpm.RunSingle), so for the same spec —
// healthy, functionally warmed, or livelocked — `lpmrun -json` with the
// control plane's instrumentation (-metrics -timeline) and the document
// lpmserve hands out are the same bytes apart from the tool name.
func TestJSONMatchesControlPlaneDocument(t *testing.T) {
	reg := ctrl.NewRegistry(context.Background(), ctrl.Config{})
	srv := httptest.NewServer(ctrl.NewAPIMux(reg))
	defer srv.Close()
	for i, tc := range []struct {
		spec ctrl.RunSpec
		args []string
	}{
		{ctrl.RunSpec{Workload: "403.gcc", Instructions: 2000, Warmup: 3000}, nil},
		{ctrl.RunSpec{Workload: "429.mcf", Instructions: 2000, Warmup: 3000, WarmupFast: true, TSWindow: 256},
			[]string{"-warmup-fast", "-tswindow", "256"}},
		{ctrl.RunSpec{Workload: "403.gcc", Instructions: 2000, Warmup: 3000, Watchdog: 1}, []string{"-watchdog", "1"}},
	} {
		args := append([]string{"-json", "-metrics", "-timeline", "-workload", tc.spec.Workload,
			"-instructions", "2000", "-warmup", "3000"}, tc.args...)
		var out, errb bytes.Buffer
		cliErr := run(context.Background(), args, &out, &errb)
		if (cliErr != nil) != (tc.spec.Watchdog > 0) {
			t.Fatalf("case %d: lpmrun err = %v\n%s", i, cliErr, errb.String())
		}

		st, err := reg.Submit(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		var doc []byte
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			resp, err := http.Get(srv.URL + "/api/v1/runs/" + st.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			doc, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("case %d: no result document: %s", i, doc)
			}
		}
		want := strings.Replace(out.String(), `"tool": "lpmrun"`, `"tool": "lpmserve"`, 1)
		if got := string(doc) + "\n"; got != want {
			t.Fatalf("case %d: documents differ\nlpmserve:\n%s\nlpmrun:\n%s", i, got, want)
		}
	}
}
