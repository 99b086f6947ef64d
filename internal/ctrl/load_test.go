package ctrl

// The fleet load test: the control plane is hammered with concurrent
// /metrics scrapes and SSE subscribers (including deliberately slow
// consumers) while a sharded report builds through a real loopback
// fabric with a worker killed mid-run. The sharded document must come
// out byte-identical to the serial baseline: observability and
// streaming load must never perturb results.
//
// This is the race-enabled serve suite (`make serve-test`); the whole
// test is watchdog-guarded so a deadlock fails loudly instead of
// hanging CI.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lpm"
	"lpm/internal/fabric"
)

// runnerFunc adapts a function to the Runner interface.
type runnerFunc func(ctx context.Context, spec RunSpec, hub *Hub) (json.RawMessage, error)

func (f runnerFunc) Run(ctx context.Context, spec RunSpec, hub *Hub) (json.RawMessage, error) {
	return f(ctx, spec, hub)
}

// loadScale keeps the serial/sharded comparison affordable under the
// race detector while the scrape/SSE storm runs.
var loadScale = lpm.Scale{Warmup: 12000, Window: 4000}

// buildLoadDoc builds the lpm-report/v2 document compared serial vs
// sharded: the Table I configuration sweep.
func buildLoadDoc(t *testing.T) []byte {
	t.Helper()
	rep, err := lpm.BuildReportCtx(context.Background(), lpm.ReportOptions{Scale: loadScale, Experiments: []string{"table1"}})
	if err != nil {
		t.Fatalf("building report: %v", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return data
}

func TestServeLoadShardedDeterminism(t *testing.T) {
	// Watchdog: a wedged subscriber or a deadlocked scheduler must fail
	// the test, not hang the suite.
	guard := time.AfterFunc(5*time.Minute, func() {
		panic("ctrl: load test watchdog expired — control plane deadlocked under load")
	})
	defer guard.Stop()

	defer func() { lpm.SetWorkers(0); lpm.ResetSimCaches() }()
	lpm.ResetSimCaches()
	lpm.SetWorkers(4)
	serial := buildLoadDoc(t)

	// A real loopback fabric the sharded build runs through while the
	// storm hits the control plane.
	lpm.ResetSimCaches()
	lf, err := fabric.StartLocal(t.Context(), 2, fabric.Options{StraggleAfter: -1}, fabric.WorkerOptions{Slots: 2})
	if err != nil {
		t.Fatalf("starting fabric: %v", err)
	}
	defer lf.Close()

	// One runner, two behaviors keyed off the workload: the burst run
	// publishes its 600 windows flat out; the stream runs pace theirs
	// so the storm overlaps live publication.
	burst := &stubRunner{windows: 600}
	stream := &stubRunner{windows: 600, delay: time.Millisecond}
	run := runnerFunc(func(ctx context.Context, spec RunSpec, hub *Hub) (json.RawMessage, error) {
		if spec.Workload == "403.gcc" {
			return burst.Run(ctx, spec, hub)
		}
		return stream.Run(ctx, spec, hub)
	})
	reg := NewRegistry(context.Background(), Config{
		Runner:        run,
		MaxConcurrent: 2,
		TenantBudget:  1,
	})
	defer reg.Drain()
	mux := NewAPIMux(reg)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// r-1: the burst run finishes before any subscriber attaches —
	// catch-up preloads then overflow the 256-event rings, making drop
	// accounting deterministic. r-2/r-3: live streams for the duration
	// of the storm, on two tenants.
	if _, err := reg.Submit(RunSpec{Workload: "403.gcc", Tenant: "acme"}); err != nil {
		t.Fatalf("submit burst run: %v", err)
	}
	waitState(t, reg, "r-1", StateDone)
	if _, err := reg.Submit(RunSpec{Workload: "429.mcf", Tenant: "acme"}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := reg.Submit(RunSpec{Workload: "433.milc", Tenant: "beta"}); err != nil {
		t.Fatalf("submit: %v", err)
	}

	var (
		wg         sync.WaitGroup
		dropEvents atomic.Uint64
		doneEvents atomic.Uint64
		scrapeErrs atomic.Uint64
	)

	// 100 SSE subscribers: 50 on the finished burst run (instant
	// catch-up through an overflowing ring), 50 on the live runs. Odd
	// subscribers are deliberately slow consumers. Every subscriber
	// audits its own stream: event ids must be strictly increasing (no
	// window arrives twice), and for the burst run — whose event count
	// is fixed at 600 windows + done — received events plus reported
	// drops must account for exactly the published total.
	subscribe := func(id int, runID string, slow bool) {
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/api/v1/runs/" + runID + "/events")
		if err != nil {
			t.Errorf("subscriber %d: %v", id, err)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var (
			lines        int
			lastID       uint64
			received     uint64 // id-carrying events seen (windows + done)
			dropReported uint64 // sum of drop-event payloads
			inDrop       bool
		)
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "id: "); ok {
				var eid uint64
				fmt.Sscanf(v, "%d", &eid)
				if eid <= lastID {
					t.Errorf("subscriber %d: id %d after %d — duplicated or reordered event", id, eid, lastID)
					return
				}
				lastID = eid
				received++
			}
			if inDrop {
				if v, ok := strings.CutPrefix(line, "data: "); ok {
					var body struct {
						Dropped uint64 `json:"dropped"`
					}
					if err := json.Unmarshal([]byte(v), &body); err != nil {
						t.Errorf("subscriber %d: drop payload %q: %v", id, v, err)
						return
					}
					dropReported += body.Dropped
					inDrop = false
				}
			}
			if ev, ok := strings.CutPrefix(line, "event: "); ok {
				switch ev {
				case "drop":
					dropEvents.Add(1)
					inDrop = true
				case "done":
					doneEvents.Add(1)
					if runID == "r-1" {
						// The drop accounting must close the books: every
						// one of the burst run's 601 events (600 windows +
						// this done, whose id line is still unread) was
						// either delivered or counted as dropped.
						if received+1+dropReported != 601 {
							t.Errorf("subscriber %d: received %d + dropped %d != 600 window events",
								id, received, dropReported)
						}
					}
					return
				}
			}
			lines++
			if slow && lines%10 == 0 {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	for i := 0; i < 100; i++ {
		wg.Add(1)
		runID := "r-1"
		if i >= 50 {
			runID = fmt.Sprintf("r-%d", 2+i%2)
		}
		go subscribe(i, runID, i%2 == 1)
	}

	// 1000 concurrent fleet scrapes, straight into the handler so the
	// storm is bounded by the mux, not by socket limits.
	for i := 0; i < 1000; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != http.StatusOK {
				scrapeErrs.Add(1)
			}
		}()
	}

	// Kill a founding worker mid-build — from the coordinator's side a
	// crash; its granules re-queue and the document must not notice.
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		time.Sleep(20 * time.Millisecond)
		if err := lf.StopWorker("local-1"); err != nil {
			t.Errorf("stopping worker: %v", err)
		}
	}()

	sharded := buildLoadDoc(t)
	churn.Wait()
	wg.Wait()

	if !bytes.Equal(serial, sharded) {
		t.Fatalf("sharded report diverged from serial under scrape/SSE load (serial %d bytes, sharded %d bytes)",
			len(serial), len(sharded))
	}
	if n := scrapeErrs.Load(); n > 0 {
		t.Fatalf("%d of 1000 fleet scrapes failed", n)
	}
	if n := doneEvents.Load(); n < 50 {
		t.Fatalf("only %d/100 subscribers saw a done event (the 50 burst-run subscribers all must)", n)
	}
	if dropEvents.Load() == 0 {
		t.Fatal("no subscriber ever saw a drop event — ring backpressure accounting is dead")
	}
	st := lf.C.Stats()
	if st.Completed == 0 {
		t.Fatalf("stats=%+v: no granule went through the fabric", st)
	}

	// The post-storm fleet scrape carries both metric families: control
	// plane and per-run.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fleet := rec.Body.String()
	for _, want := range []string{
		"lpm_ctrl_runs_submitted 3",
		"lpm_ctrl_sse_events_dropped",
		`lpm_stub_windows{run="r-1",tenant="acme"} 600`,
	} {
		if !strings.Contains(fleet, want) {
			t.Fatalf("fleet /metrics lacks %q:\n%.2000s", want, fleet)
		}
	}
}
