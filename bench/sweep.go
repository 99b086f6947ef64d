package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"lpm/internal/fabric"
	"lpm/internal/resilience/fleet"
	"lpm/internal/sched"
	"lpm/internal/trace"
)

// noopKind is the benchmark's own granule kind: y = 2x. It does no
// engine work, so everything sweep_noop measures is the fabric.
const noopKind = "bench.noop"

type noopSpec struct {
	X uint64 `json:"x"`
}

type noopResult struct {
	Y uint64 `json:"y"`
}

func init() {
	fabric.RegisterKind(noopKind, func(_ context.Context, raw json.RawMessage) (json.RawMessage, error) {
		var s noopSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("bench: decode %s spec: %w", noopKind, err)
		}
		return json.Marshal(noopResult{Y: 2 * s.X})
	})
}

// noopFleet is an in-process coordinator with its loopback workers.
type noopFleet struct {
	c      *fabric.Coordinator
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// fleetWorkers and their single slot are the shape ROADMAP's "two
// 1-slot loopback workers" row names.
const fleetWorkers = 2

// startFleet listens on loopback, starts the workers and waits until
// they have joined: one set-up.
func startFleet(opts fabric.Options) (*noopFleet, error) {
	c, err := fabric.Listen("127.0.0.1:0", opts)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &noopFleet{c: c, cancel: cancel}
	for i := 0; i < fleetWorkers; i++ {
		f.wg.Add(1)
		name := fmt.Sprintf("bench-w%d", i+1)
		go func() {
			defer f.wg.Done()
			// A worker's error after the coordinator closed is the
			// shutdown itself; failures while it matters surface as
			// failed granules.
			_ = fabric.RunWorker(ctx, c.Addr(), fabric.WorkerOptions{Name: name, Slots: 1})
		}()
	}
	join, stop := context.WithTimeout(ctx, 30*time.Second)
	defer stop()
	if err := c.WaitWorkers(join, fleetWorkers); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop closes the coordinator and waits for every worker to exit.
func (f *noopFleet) stop() {
	_ = f.c.Close()
	f.cancel()
	f.wg.Wait()
}

// granule submits one no-op granule and verifies its result.
func (f *noopFleet) granule(ctx context.Context, x uint64) (time.Duration, error) {
	spec, err := json.Marshal(noopSpec{X: x})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	raw, err := f.c.Submit(ctx, noopKind, fmt.Sprintf("noop|%d", x), spec)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	var r noopResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return d, err
	}
	if r.Y != 2*x {
		return d, fmt.Errorf("granule x=%d returned y=%d", x, r.Y)
	}
	return d, nil
}

// memMark is the completed-granule count at which sweep_noop reads its
// memory figure: the coordinator keeps every result, so memory at the
// end of a fixed-time run grows with throughput, and a faster fabric
// would read as a memory regression. A ten-second run completes about
// three times as many on the reference box.
const memMark = 50_000

// load drives the fleet closed-loop from nproc submitters for the given
// time. Every x is distinct, so no granule is answered from the result
// cache. One granule in `every` is recorded as a span. memMB is the
// live heap when the memMark-th granule completed (0 if the run never
// got there); the collection it forces stalls the submitters once, for
// a few milliseconds in ten seconds.
func (f *noopFleet) load(rc *runCtx, tag uint64, dur time.Duration, every int) (ops []timed, wall time.Duration, memMB float64) {
	ctx, cancel := context.WithTimeout(context.Background(), dur+opTimeout)
	defer cancel()
	clients := runtime.NumCPU()
	per := make([][]timed, clients)
	var mu sync.Mutex
	var completed int
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(dur)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			// seed, pass and client partition the x space.
			base := rc.seed<<40 | tag<<36 | uint64(cl)<<32
			for i := uint64(0); time.Now().Before(deadline); i++ {
				start := time.Now()
				d, err := f.granule(ctx, base|i)
				mu.Lock()
				rc.res.ops(1)
				if err != nil {
					rc.res.fail("granule: %v", err)
				} else if completed++; completed == memMark {
					memMB = liveHeapMB()
				}
				mu.Unlock()
				if err != nil {
					continue
				}
				per[cl] = append(per[cl], timed{time.Since(begin), d.Seconds() * 1e3})
				if every > 0 && i%uint64(every) == 0 {
					rc.spans.add("fabric.granule", fmt.Sprintf("granule-%d-%d", cl, i), "", start, start.Add(d), 0)
				}
			}
		}(cl)
	}
	wg.Wait()
	wall = time.Since(begin)
	for _, p := range per {
		ops = append(ops, p...)
	}
	return ops, wall, memMB
}

// runSweepNoop is the sweep_noop workload.
func runSweepNoop(rc *runCtx) error {
	var f *noopFleet
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.stop()
		}
		if err := rc.timeSetup(func() (err error) { f, err = startFleet(fabric.Options{}); return err }); err != nil {
			return err
		}
	}
	defer f.stop()
	if rc.traced {
		return runSweepNoopTraced(rc, f)
	}
	ops, wall, mem := f.load(rc, 0, rc.budget(1), 0)
	if len(ops) == 0 {
		return fmt.Errorf("no granule completed: %v", rc.res.problems)
	}
	quiet, _ := quietest(ops, wall)
	rc.res.setMedian("op_ms_p50", quiet)
	rc.res.labels["mem_mb"] = fmt.Sprintf("at %d granules", memMark)
	if mem == 0 {
		mem = liveHeapMB()
		rc.res.labels["mem_mb"] = fmt.Sprintf("at the end: fewer than %d granules completed", memMark)
	}
	rc.res.set("mem_mb", mem)
	return nil
}

// runSweepNoopTraced splits one granule's cost: the frame and JSON
// kernels on the fabric's public functions, the unloaded round trip,
// the loaded latency (whose excess over the round trip is queueing),
// and the same load with the scheduling journal on.
func runSweepNoopTraced(rc *runCtx, f *noopFleet) error {
	res := rc.res
	reps := 15
	if rc.smoke {
		reps = 3
	}

	// Kernels at a real granule's payload: the profiling spec the fig8
	// sweep ships.
	real := sched.ProfileSpec{Profile: trace.MustProfile("429.mcf"), L1Size: 64 << 10,
		Opt: sched.ProfileOptions{Instructions: 15000, Warmup: 140000}}
	spec, err := json.Marshal(real)
	if err != nil {
		return err
	}
	msg := fabric.Msg{Type: fabric.MsgWork, ID: 1, Kind: sched.ProfileKind, Key: real.MemoKey(), Spec: spec}
	frame, err := fabric.EncodeFrame(msg)
	if err != nil {
		return err
	}
	const batch = 500
	var encode, decode, specJSON []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := fabric.EncodeFrame(msg); err != nil {
				return err
			}
		}
		encode = append(encode, time.Since(start).Seconds()*1e6/batch)
		start = time.Now()
		for i := 0; i < batch; i++ {
			got, err := fabric.ReadFrame(bytes.NewReader(frame))
			if err != nil || got.Key != msg.Key {
				return fmt.Errorf("frame round trip: %v", err)
			}
		}
		decode = append(decode, time.Since(start).Seconds()*1e6/batch)
		start = time.Now()
		for i := 0; i < batch; i++ {
			raw, err := json.Marshal(real)
			if err != nil {
				return err
			}
			var back sched.ProfileSpec
			if err := json.Unmarshal(raw, &back); err != nil {
				return err
			}
		}
		specJSON = append(specJSON, time.Since(start).Seconds()*1e6/batch)
	}
	res.setMedian("fabric.frame_encode_us", encode)
	res.setMedian("fabric.frame_decode_us", decode)
	res.setMedian("fabric.spec_json_us", specJSON)
	res.labels["fabric.frame_encode_us"] = fmt.Sprintf("%d-byte frame", len(frame))

	// Round trip with one granule outstanding.
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var rtt []float64
	for i, deadline := uint64(0), time.Now().Add(rc.budget(0.15)); (time.Now().Before(deadline) || len(rtt) < 20) && res.failed == 0; i++ {
		res.ops(1)
		d, err := f.granule(ctx, rc.seed<<40|1<<36|i)
		if err != nil {
			res.fail("granule: %v", err)
			continue
		}
		rtt = append(rtt, d.Seconds()*1e6)
	}
	res.setMedian("fabric.rtt_us", rtt)

	// Loaded, one granule in 64 kept as a span.
	loaded, loadedWall, _ := f.load(rc, 2, rc.budget(0.4), 64)
	if len(loaded) == 0 {
		return fmt.Errorf("no granule completed: %v", res.problems)
	}
	ms := make([]float64, len(loaded))
	for i, o := range loaded {
		ms[i] = o.v
	}
	_, perSec := quietest(loaded, loadedWall)
	res.set("fabric.granules_per_s", perSec)
	p50 := median(ms)
	res.set("fabric.queue_wait_ms", max(0, p50-median(rtt)/1e3))
	p99, label := tail(ms, 99, 90)
	res.set("fabric.granule_ms_p99", p99)
	res.labels["fabric.granule_ms_p99"] = fmt.Sprintf("%s of %d granules", label, len(ms))
	st := f.c.Stats()
	res.set("fabric.granules", float64(st.Completed))
	res.set("fabric.duplicated", float64(st.Duplicated))
	res.set("fabric.requeued", float64(st.Requeued))
	res.set("fabric.retried", float64(st.Retried))
	res.set("fabric.cache_probe_hits", float64(st.CacheHits))

	// The journal: one fsynced append, then the whole fleet with
	// JournalPath set. Host-disk dependent; reported, never bounded.
	j, err := fleet.OpenJournal(filepath.Join(rc.tmp, "kernel.journal"))
	if err != nil {
		return err
	}
	var appendUS []float64
	for i := 0; i < 4*reps; i++ {
		start := time.Now()
		if err := j.Append(fleet.Entry{Tick: uint64(i), Op: "issue", Worker: "bench-w1", Kind: noopKind, Key: msg.Key}); err != nil {
			_ = j.Close()
			return err
		}
		appendUS = append(appendUS, time.Since(start).Seconds()*1e6)
	}
	if err := j.Close(); err != nil {
		return err
	}
	res.setMedian("fleet.journal_append_us", appendUS)
	jf, err := startFleet(fabric.Options{JournalPath: filepath.Join(rc.tmp, "fleet.journal")})
	if err != nil {
		return err
	}
	defer jf.stop()
	jms, jwall, _ := jf.load(rc, 3, rc.budget(0.2), 0)
	res.set("fabric.journaled_granules_per_s", float64(len(jms))/jwall.Seconds())
	return nil
}

// sweepArgs is the sharded command: the experiment whose simulations
// dominate the report, default shard flags, two workers required.
func sweepArgs(rc *runCtx, extra ...string) []string {
	args := []string{"-quick", "-json", "-experiment", "fig8"}
	if rc.smoke {
		args = []string{"-quick", "-json", "-experiment", "table1"}
	}
	return append(args, extra...)
}

// sweepResult is one sharded sweep.
type sweepResult struct {
	wall     time.Duration
	rssMB    float64
	doc      []byte
	executed []float64 // granules executed per worker
	probes   float64   // worker cache-probe hits
}

// shardedSweep runs the coordinator (lpmreport -shard) and two 1-slot
// lpmworker processes, from coordinator start to report written and
// every process ended.
func shardedSweep(rc *runCtx, id string) (sweepResult, error) {
	var sr sweepResult
	addrFile := filepath.Join(rc.tmp, "addr-"+id)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	coord := exec.CommandContext(ctx, filepath.Join(rc.bin, "lpmreport"),
		sweepArgs(rc, "-shard", "127.0.0.1:0", "-shard-addr-file", addrFile, "-shard-min", fmt.Sprint(fleetWorkers))...)
	coord.Dir = rc.tmp
	var doc, coordErr bytes.Buffer
	coord.Stdout, coord.Stderr = &doc, &coordErr
	start := time.Now()
	if err := coord.Start(); err != nil {
		return sr, err
	}
	var addr string
	for addr == "" {
		if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			addr = strings.TrimSpace(string(data))
			break
		}
		if ctx.Err() != nil {
			_ = stopProc(coord, time.Second)
			return sr, fmt.Errorf("coordinator never published its address: %s", coordErr.Bytes())
		}
		time.Sleep(2 * time.Millisecond)
	}
	workers := make([]*exec.Cmd, fleetWorkers)
	logs := make([]bytes.Buffer, fleetWorkers)
	for i := range workers {
		w := exec.CommandContext(ctx, filepath.Join(rc.bin, "lpmworker"),
			"-slots", "1", "-log", "json", "-name", fmt.Sprintf("bench-w%d", i+1), addr)
		w.Dir = rc.tmp
		w.Stderr = &logs[i]
		if err := w.Start(); err != nil {
			_ = stopProc(coord, time.Second)
			for _, prev := range workers[:i] {
				_ = stopProc(prev, time.Second)
			}
			return sr, err
		}
		workers[i] = w
	}
	cerr := coord.Wait()
	// Workers leave on their own when the coordinator disconnects; the
	// sweep is over for the user only when they have.
	for _, w := range workers {
		_ = waitProc(w, 10*time.Second) // its summary line, checked below, is what matters
	}
	end := time.Now()
	rc.spans.add("sweep.sharded", id, "", start, end, 0)
	if cerr != nil {
		return sr, fmt.Errorf("sharded lpmreport: %w: %s", cerr, bytes.TrimSpace(coordErr.Bytes()))
	}
	sr.wall = end.Sub(start)
	sr.rssMB = maxRSSMB(coord.ProcessState)
	sr.doc = doc.Bytes()
	for i := range logs {
		executed, probes, ok := workerSummary(logs[i].Bytes())
		if !ok {
			return sr, fmt.Errorf("worker %d logged no shutdown summary: %s", i+1, logs[i].Bytes())
		}
		sr.executed = append(sr.executed, executed)
		sr.probes += probes
	}
	return sr, nil
}

// workerSummary finds an lpmworker's JSON shutdown summary line.
func workerSummary(log []byte) (executed, probes float64, ok bool) {
	sc := bufio.NewScanner(bytes.NewReader(log))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Msg      string  `json:"msg"`
			Executed float64 `json:"executed"`
			Probes   float64 `json:"cache_probe_hits"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "fabric: worker summary" {
			executed, probes, ok = line.Executed, line.Probes, true
		}
	}
	return executed, probes, ok
}

// runSweepReal is the sweep_real workload.
func runSweepReal(rc *runCtx) error {
	res := rc.res
	for i := 0; i < setupRepeats; i++ {
		if err := rc.timeSetup(func() error { return buildBinaries(rc, "lpmreport", "lpmworker") }); err != nil {
			return err
		}
	}
	// The reference: the same command in one process. Sharded bytes must
	// equal it.
	workers := "2"
	if rc.traced {
		workers = "1" // fabric.lpmr compares against one in-process worker
	}
	ref, err := runProc(rc, "lpmreport", sweepArgs(rc, "-workers", workers)...)
	if err != nil {
		return err
	}
	refSum := checkReport(res, "in-process sweep report", ref.stdout, 1)
	var walls, balance []float64
	var rss, granules, probes float64
	begin := time.Now()
	for n := 0; n == 0 || (!rc.traced && time.Since(begin).Seconds()+median(walls)/1e3 <= 1.1*rc.seconds); n++ {
		res.ops(1)
		sr, err := shardedSweep(rc, fmt.Sprintf("sweep-%d", n))
		if err != nil {
			res.fail("%v", err)
			break
		}
		if sum := checkReport(res, "sharded report", sr.doc, 1); !bytes.Equal(sr.doc, ref.stdout) {
			res.fail("sharded report differs from the in-process run: %s vs %s", sum[:16], refSum[:16])
			continue
		}
		walls = append(walls, sr.wall.Seconds()*1e3)
		rss = max(rss, sr.rssMB)
		lo, hi := sr.executed[0], sr.executed[0]
		for _, e := range sr.executed {
			lo, hi = min(lo, e), max(hi, e)
			granules += e
		}
		if hi > 0 {
			balance = append(balance, lo/hi)
		}
		probes += sr.probes
	}
	if len(walls) == 0 {
		return fmt.Errorf("no sharded sweep completed: %v", res.problems)
	}
	if rc.traced {
		res.set("fabric.worker_balance", median(balance))
		res.set("fabric.lpmr", fleetWorkers*median(walls)/(ref.wall.Seconds()*1e3))
		res.set("fabric.granules", granules)
		res.set("fabric.cache_probe_hits", probes)
		return nil
	}
	setFastest(res, walls)
	res.set("mem_mb", rss)
	return nil
}
