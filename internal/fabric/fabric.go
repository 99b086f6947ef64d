// Package fabric is the horizontally sharded sweep layer: a
// coordinator/worker architecture that spreads the repository's
// memoised simulations across worker processes over plain TCP.
//
// The shape follows the rest of the codebase's "split small + run
// concurrent, structured results only" strategy. The unit of work is a
// granule: one self-contained simulation job (a JSON spec naming a
// registered executor kind) whose result is a pure function of the
// spec. The coordinator owns a deterministic granule queue and a
// content-keyed result cache — the network backend of the
// internal/parallel memo — and dispatches granules to connected
// workers under per-worker in-flight budgets. Workers may die, hang,
// join, or leave at any time: granules held by a dead worker are
// re-issued, stragglers are duplicated onto idle workers (first result
// wins; results are pure, so duplicates are identical), and a run with
// zero workers simply waits for one to join.
//
// Because every granule result is a pure function of its spec and the
// drivers consume results in their own (deterministic) submission
// order, a sharded run is bit-identical to a serial one at any worker
// count. The property tests in the root package pin that guarantee;
// the chaos suite pins it under worker kills, torn frames, and
// coordinator restarts.
//
// The wire format reuses the PR 5 checkpoint envelope (LPMCKPT1 magic,
// length prefix, CRC64) as its frame, so every torn or corrupt frame is
// detected at the boundary and treated as a dead peer, never decoded
// into garbage.
package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"lpm/internal/parallel"
)

// Executor runs one granule kind: it receives the JSON spec and returns
// the JSON result. Executors must be pure functions of the spec (plus
// cooperative cancellation via ctx) — the fabric's determinism and
// re-issue semantics both depend on it.
type Executor func(ctx context.Context, spec json.RawMessage) (json.RawMessage, error)

var kindRegistry = struct {
	mu    sync.Mutex
	kinds map[string]Executor
}{kinds: make(map[string]Executor)}

// RegisterKind installs the executor for a granule kind. Packages that
// own a memoised simulation register their kind at init time, so any
// binary importing them (lpmworker, the CLIs, the tests) can execute
// the granule. Registering an empty or duplicate kind panics: both are
// programming errors.
func RegisterKind(kind string, fn Executor) {
	if kind == "" || fn == nil {
		panic("fabric: RegisterKind with empty kind or nil executor")
	}
	kindRegistry.mu.Lock()
	defer kindRegistry.mu.Unlock()
	if _, dup := kindRegistry.kinds[kind]; dup {
		panic(fmt.Sprintf("fabric: kind %q registered twice", kind))
	}
	kindRegistry.kinds[kind] = fn
}

// lookupKind returns the registered executor for kind.
func lookupKind(kind string) (Executor, error) {
	kindRegistry.mu.Lock()
	defer kindRegistry.mu.Unlock()
	fn, ok := kindRegistry.kinds[kind]
	if !ok {
		return nil, fmt.Errorf("fabric: unknown granule kind %q (known: %v)", kind, kindNamesLocked())
	}
	return fn, nil
}

// Kinds returns the registered granule kinds, sorted.
func Kinds() []string {
	kindRegistry.mu.Lock()
	defer kindRegistry.mu.Unlock()
	return kindNamesLocked()
}

// kindNamesLocked collects and sorts the kind names; the sort keeps
// every rendering of the registry deterministic.
func kindNamesLocked() []string {
	names := make([]string, 0, len(kindRegistry.kinds))
	for k := range kindRegistry.kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// active is the process-wide coordinator the simulation paths dispatch
// through; nil means every simulation runs locally (the default, and
// the state inside worker processes).
var active atomic.Pointer[Coordinator]

// Activate installs c as the process-wide coordinator and returns a
// restore func that re-installs the previous one. The CLIs activate
// after binding -shard; the in-process harness activates around each
// test run.
func Activate(c *Coordinator) (restore func()) {
	prev := active.Swap(c)
	return func() { active.Store(prev) }
}

// Spec is a granule's portable input: every input of the simulation in
// exported JSON-safe fields. MemoKey is its identity in the in-process
// memo, the checkpoint files and the coordinator's result cache alike.
type Spec interface{ MemoKey() string }

// Kind is one memoised, shardable simulation kind, declared once by
// NewKind: the named memo, the worker-side executor and the driver-side
// dispatch between them.
type Kind[S Spec, R any] struct {
	name string
	run  func(context.Context, S) (R, error)
	memo *parallel.Memo[R]
}

// NewKind registers run — a pure function of its spec — as granule kind
// name's executor. The memo carries the same name, so checkpoints
// persist it.
func NewKind[S Spec, R any](name string, run func(context.Context, S) (R, error)) *Kind[S, R] {
	RegisterKind(name, func(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
		var s S
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("fabric: decode %s spec: %w", name, err)
		}
		r, err := run(ctx, s)
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	})
	return &Kind[S, R]{name: name, run: run, memo: parallel.NewNamedMemo[R](name)}
}

// Do returns the memoised result for spec. A miss runs in-process or,
// when a coordinator is active, as a granule submitted under the memo
// key; both fill the same memo entry, so checkpoints and resumes are
// oblivious to where a result was computed.
func (k *Kind[S, R]) Do(ctx context.Context, spec S) (R, error) {
	return k.do(ctx, active.Load(), spec)
}

// DoAll is Do over a batch: input-ordered results and the
// lowest-indexed error, as parallel.MapCtx reports them. In-process it
// runs on the default pool, bounded by -workers; with a coordinator
// active the whole batch is outstanding there at once (a blocked Submit
// costs a goroutine, not a CPU), so the coordinator's queue, not this
// host's core count, is where demand meets the fleet's supply.
func (k *Kind[S, R]) DoAll(ctx context.Context, specs []S) ([]R, error) {
	c := active.Load()
	if c == nil {
		return parallel.MapCtx(ctx, specs, k.Do)
	}
	// One goroutine per spec: each blocks in its Submit.
	return parallel.MapPoolCtx(ctx, parallel.NewPool(len(specs)), specs, func(ctx context.Context, spec S) (R, error) {
		return k.do(ctx, c, spec)
	})
}

// do is Do against an explicit coordinator (nil = in-process).
func (k *Kind[S, R]) do(ctx context.Context, c *Coordinator, spec S) (R, error) {
	key := spec.MemoKey()
	return k.memo.DoCtx(ctx, key, func(ctx context.Context) (out R, err error) {
		if c == nil {
			return k.run(ctx, spec)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			return out, fmt.Errorf("fabric: marshal %s spec: %w", k.name, err)
		}
		val, err := c.Submit(ctx, k.name, key, raw)
		if err != nil {
			return out, err
		}
		if err := json.Unmarshal(val, &out); err != nil {
			return out, fmt.Errorf("fabric: unmarshal %s result: %w", k.name, err)
		}
		return out, nil
	})
}
