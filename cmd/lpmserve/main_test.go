package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"lpm/internal/ctrl"
)

// syncWriter shares a buffer between the server goroutine and the
// test's polling reads.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
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

// startServe runs the CLI in-process and returns its base URL plus a
// shutdown func that cancels the serve context and waits for exit.
func startServe(t *testing.T, args []string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncWriter{}
	errb := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, args, out, errb)
	}()
	var addr string
	for i := 0; i < 500 && addr == ""; i++ {
		time.Sleep(10 * time.Millisecond)
		for _, line := range strings.Split(out.string(), "\n") {
			if i := strings.Index(line, "on http://"); i >= 0 {
				addr = strings.TrimSpace(line[i+len("on http://"):])
			}
		}
	}
	if addr == "" {
		cancel()
		t.Fatalf("server address never printed:\nstdout: %s\nstderr: %s", out.string(), errb.string())
	}
	return "http://" + addr, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatalf("lpmserve did not exit after cancellation\nstderr: %s", errb.string())
			return nil
		}
	}
}

// TestServeRunLifecycle drives the control plane end to end over HTTP:
// submit a small real simulation, watch it to done, pull its result and
// the fleet metrics, and shut down cleanly.
func TestServeRunLifecycle(t *testing.T) {
	url, shutdown := startServe(t, []string{"-addr", "127.0.0.1:0", "-grace", "5s", "-log", "json"})

	resp, err := http.Post(url+"/api/v1/runs", "application/json",
		strings.NewReader(`{"workload":"403.gcc","tenant":"acme","instructions":2000,"warmup":3000,"ts_window":512}`))
	if err != nil {
		t.Fatalf("POST runs: %v", err)
	}
	var st ctrl.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	resp.Body.Close()
	if st.ID != "r-1" || st.API != ctrl.APIVersion {
		t.Fatalf("submit status: %+v", st)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State != ctrl.StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("run never finished: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
		resp, err := http.Get(url + "/api/v1/runs/r-1")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == ctrl.StateFailed {
			t.Fatalf("run failed: %+v", st)
		}
	}
	if st.Windows == 0 {
		t.Fatalf("finished run published no timeline windows: %+v", st)
	}

	resp, err = http.Get(url + "/api/v1/runs/r-1/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"lpm-report/v2"`) || !strings.Contains(string(body), "403.gcc") {
		t.Fatalf("result document: %.400s", body)
	}

	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fleet, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"lpm_ctrl_runs_done 1",
		`run="r-1",tenant="acme"`,
	} {
		if !strings.Contains(string(fleet), want) {
			t.Fatalf("fleet /metrics lacks %q:\n%.2000s", want, fleet)
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeFlagErrors pins CLI error paths. A flag error is
// flag.ErrHelp, which main turns into exit status 2. lpmserve hosts no
// sweep-fabric coordinator, so -shard is an unknown flag; the context
// is cancelled so a server that did accept it stops at once.
func TestServeFlagErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-addr", "127.0.0.1:0", "-shard", "127.0.0.1:0"},
	} {
		var out, errb bytes.Buffer
		err := run(ctx, args, &out, &errb)
		if !errors.Is(err, flag.ErrHelp) || !strings.Contains(errb.String(), "flag provided but not defined") {
			t.Errorf("%v: err=%v, stderr %q; want the unknown-flag error and exit 2", args, err, errb.String())
		}
	}
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bogus"}, &out, &errb); err == nil || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("bad listen address: err=%v, want a listen error (exit 1)", err)
	}
}
