package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"lpm/internal/ctrl"
	"lpm/internal/obs/timeseries"
)

// server is one lpmserve subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
}

// startServer launches lpmserve on a free loopback port and waits for
// the line that announces its address.
func startServer(rc *runCtx) (*server, error) {
	s := &server{cmd: exec.Command(filepath.Join(rc.bin, "lpmserve"), "-addr", "127.0.0.1:0", "-log", "json")}
	s.cmd.Dir = rc.tmp
	s.cmd.Stderr = &s.stderr
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			line <- sc.Text()
		}
		close(line)
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case l := <-line:
		i := strings.Index(l, "http://")
		if i < 0 {
			_ = s.stop()
			return nil, fmt.Errorf("lpmserve announced %q: %s", l, s.stderr.Bytes())
		}
		s.base = strings.TrimSpace(l[i:])
		return s, nil
	case <-time.After(30 * time.Second):
		_ = s.stop()
		return nil, fmt.Errorf("lpmserve did not come up: %s", s.stderr.Bytes())
	}
}

// stop drains the server (SIGTERM) and waits until it has exited.
func (s *server) stop() error { return stopProc(s.cmd, 15*time.Second) }

// serveRun is what one submitted run measured, all from the POST.
type serveRun struct {
	submit, connect, first, done time.Duration
	windows                      int
	dropped                      uint64
}

// serveRSSMark is the completed-run count at which serve_submit reads
// lpmserve's resident set (see hwmMB); a ten-second run completes about
// three times as many on the reference box.
const serveRSSMark = 60

// serveWorkloads rotate by seed and run index, so every run of the
// benchmark mixes a cache-friendly, a pointer-chasing and a streaming
// program.
var serveWorkloads = []string{"401.bzip2", "429.mcf", "433.milc"}

// submitAndFollow posts one run, opens its SSE stream and reads it to
// the done event. An error is a failed operation.
func submitAndFollow(ctx context.Context, hc *http.Client, base, tenant, workload string) (serveRun, string, error) {
	var r serveRun
	body, err := json.Marshal(ctrl.RunSpec{Tenant: tenant, Workload: workload, Instructions: 20000, Warmup: 60000})
	if err != nil {
		return r, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/v1/runs", bytes.NewReader(body))
	if err != nil {
		return r, "", err
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return r, "", err
	}
	var st ctrl.RunStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	_ = resp.Body.Close()
	r.submit = time.Since(start)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return r, "", fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/runs/"+st.ID+"/events", nil)
	if err != nil {
		return r, st.ID, err
	}
	opened := time.Now()
	resp, err = hc.Do(req)
	if err != nil {
		return r, st.ID, err
	}
	defer func() { _ = resp.Body.Close() }()
	r.connect = time.Since(opened)
	if resp.StatusCode != http.StatusOK {
		return r, st.ID, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			switch event {
			case "window":
				if r.windows == 0 {
					r.first = time.Since(start)
					var w timeseries.Window
					if err := json.Unmarshal([]byte(data), &w); err != nil || w.Index != 0 {
						return r, st.ID, fmt.Errorf("first event is window %d (%v), want 0", w.Index, err)
					}
				}
				r.windows++
			case "drop":
				var d struct {
					Dropped uint64 `json:"dropped"`
				}
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					return r, st.ID, err
				}
				r.dropped += d.Dropped
			case "done":
				r.done = time.Since(start)
				if r.windows == 0 {
					return r, st.ID, fmt.Errorf("run finished without a window event")
				}
				return r, st.ID, nil
			}
		}
	}
	return r, st.ID, fmt.Errorf("event stream ended before done: %v", sc.Err())
}

// finalState fetches a run's state after its done event. The registry
// publishes done on the run's hub just before it marks the run
// terminal, so a read in between still says running; such a read is
// repeated, for at most a second.
func finalState(ctx context.Context, hc *http.Client, base, id string) (ctrl.RunState, error) {
	var st ctrl.RunStatus
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/runs/"+id, nil)
		if err != nil {
			return "", err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return "", err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		_ = resp.Body.Close()
		if err != nil {
			return "", err
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			return st.State, nil
		}
	}
}

// runServeSubmit is the serve_submit workload.
func runServeSubmit(rc *runCtx) error {
	res := rc.res
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("lpmserve exit: %w", err)
			}
		}
		err := rc.timeSetup(func() (err error) {
			if err = buildBinaries(rc, "lpmserve"); err == nil {
				srv, err = startServer(rc)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	defer func() { _ = srv.stop() }() // error paths; after the stop below it finds the process gone

	clients := runtime.NumCPU()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	defer hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), rc.budget(1)+opTimeout)
	defer cancel()

	var mu sync.Mutex
	var runs []serveRun
	var rss float64
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(rc.budget(1))
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			tenant := fmt.Sprintf("bench-%d", cl)
			for i := 0; time.Now().Before(deadline); i++ {
				workload := serveWorkloads[(int(rc.seed%3)+cl+i)%len(serveWorkloads)]
				start := time.Now()
				r, id, err := submitAndFollow(ctx, hc, srv.base, tenant, workload)
				if err == nil {
					var state ctrl.RunState
					if state, err = finalState(ctx, hc, srv.base, id); err == nil && state != ctrl.StateDone {
						err = fmt.Errorf("run %s ended %s", id, state)
					}
				}
				if err == nil && r.dropped > 0 {
					err = fmt.Errorf("run %s dropped %d SSE events", id, r.dropped)
				}
				mu.Lock()
				res.ops(1)
				if err != nil {
					res.fail("%s: %v", workload, err)
				} else if runs = append(runs, r); len(runs) == serveRSSMark {
					rss = hwmMB(srv.cmd.Process.Pid)
				}
				mu.Unlock()
				if err != nil {
					continue
				}
				span := fmt.Sprintf("run-%d-%d", cl, i)
				rc.spans.add("ctrl.run", span, "", start, start.Add(r.done), 0)
				rc.spans.add("ctrl.submit", span, "ctrl.run", start, start.Add(r.submit), 0)
				rc.spans.add("ctrl.sse_connect", span, "ctrl.run", start.Add(r.submit), start.Add(r.submit+r.connect), 0)
				rc.spans.add("ctrl.first_event", span, "ctrl.run", start, start.Add(r.first), 0)
			}
		}(cl)
	}
	wg.Wait()
	wall := time.Since(begin)
	if len(runs) == 0 {
		return fmt.Errorf("no run completed: %v: %s", res.problems, srv.stderr.Bytes())
	}

	ms := func(pick func(serveRun) time.Duration) []float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = pick(r).Seconds() * 1e3
		}
		return xs
	}
	if rc.traced {
		res.setMedian("ctrl.submit_ms", ms(func(r serveRun) time.Duration { return r.submit }))
		res.setMedian("ctrl.sse_connect_ms", ms(func(r serveRun) time.Duration { return r.connect }))
		first := ms(func(r serveRun) time.Duration { return r.first })
		res.setMedian("ctrl.first_event_ms_p50", first)
		p90, label := tail(first, 90)
		res.set("ctrl.first_event_ms_p90", p90)
		res.labels["ctrl.first_event_ms_p90"] = fmt.Sprintf("%s of %d runs", label, len(first))
		var windows []float64
		var dropped uint64
		for _, r := range runs {
			windows = append(windows, float64(r.windows))
			dropped += r.dropped
		}
		res.set("ctrl.runs_per_s", float64(len(runs))/wall.Seconds())
		res.setMedian("ctrl.windows_per_run", windows)
		res.set("ctrl.events_dropped", float64(dropped))
		if err := serveKernels(ctx, rc, hc, srv.base); err != nil {
			return err
		}
	} else {
		// The three programs' runs differ fivefold in length, so the median
		// is over the whole interval: a window's median would move with
		// the mix of programs that happened to end in it.
		res.setMedian("op_ms_p50", ms(func(r serveRun) time.Duration { return r.done }))
	}

	if err := srv.stop(); err != nil {
		res.fail("lpmserve did not drain cleanly: %v", err)
	}
	if !rc.traced {
		res.labels["mem_mb"] = fmt.Sprintf("at %d runs", serveRSSMark)
		if rss == 0 {
			rss = maxRSSMB(srv.cmd.ProcessState)
			res.labels["mem_mb"] = fmt.Sprintf("at exit: fewer than %d runs completed", serveRSSMark)
		}
		res.set("mem_mb", rss)
	}
	return nil
}

// serveKernels times the fleet scrape against the server that now
// holds the finished runs, and Hub.Publish with one subscriber.
func serveKernels(ctx context.Context, rc *runCtx, hc *http.Client, base string) error {
	var scrape []float64
	for i := 0; i < 7; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return err
		}
		start := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		scrape = append(scrape, time.Since(start).Seconds()*1e3)
		if err != nil || resp.StatusCode != http.StatusOK || n == 0 {
			rc.res.fail("scrape: status %d, %d bytes: %v", resp.StatusCode, n, err)
		}
	}
	rc.res.setMedian("ctrl.scrape_ms", scrape)

	// Batches stay under the subscriber's ring, so nothing is dropped
	// and Publish pays for a real push every time.
	const batch = ctrl.DefaultRing / 2
	var publish []float64
	for rep := 0; rep < 15; rep++ {
		hub := ctrl.NewHub()
		sub := hub.Subscribe(0)
		start := time.Now()
		for i := 0; i < batch; i++ {
			hub.Publish(timeseries.Window{Index: i, Start: uint64(i) * 2048, End: uint64(i+1) * 2048, Phase: -1})
		}
		publish = append(publish, time.Since(start).Seconds()*1e6/batch)
		for i := 0; i < batch; i++ {
			if _, dropped, ok := sub.Next(ctx); !ok || dropped > 0 {
				rc.res.fail("hub kernel: event %d ok=%v dropped=%d", i, ok, dropped)
				break
			}
		}
		sub.Close()
	}
	rc.res.setMedian("ctrl.hub_publish_us", publish)
	return nil
}
