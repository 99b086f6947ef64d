package parallel

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// KeyOf builds a deterministic memo key from the %#v representation of
// each part. The simulation inputs fingerprinted this way (explore.Point,
// trace.Profile, scale/window scalars) are plain value structs, so the
// representation is a faithful content fingerprint: equal inputs produce
// equal keys and differing inputs differ in at least one field's
// rendering.
func KeyOf(parts ...any) string {
	var b strings.Builder
	for _, p := range parts {
		fmt.Fprintf(&b, "%#v\x1f", p)
	}
	return b.String()
}

// memoEntry is one in-flight or completed computation.
type memoEntry[V any] struct {
	ready chan struct{} // closed when val/err are final
	val   V
	err   error
}

// Memo is a content-keyed, single-flight result cache: concurrent Do
// calls with the same key run the function once and share the result.
// The experiment drivers keep one Memo per simulation kind (design-point
// runs, profiling runs, alone-IPC runs), so a point evaluated by Table1
// is free when CaseStudyI revisits it.
type Memo[V any] struct {
	name    string // non-empty for checkpointable memos (NewNamedMemo)
	mu      sync.Mutex
	entries map[string]*memoEntry[V]
	hits    int64
	misses  int64
}

// NewMemo returns an empty memo registered for ResetAllMemos.
func NewMemo[V any]() *Memo[V] {
	m := &Memo[V]{entries: make(map[string]*memoEntry[V])}
	registry.mu.Lock()
	registry.memos = append(registry.memos, m)
	registry.mu.Unlock()
	return m
}

// NewNamedMemo is NewMemo plus a stable name under which the memo's
// completed entries appear in ExportMemos/ImportMemos — the hook the
// checkpoint layer uses to persist simulation results across process
// deaths. V must round-trip through JSON.
func NewNamedMemo[V any](name string) *Memo[V] {
	m := NewMemo[V]()
	m.name = name
	return m
}

// Do returns the memoised result for key, computing it with fn on the
// first call. Concurrent callers of a key in flight block until the
// computation finishes and share its outcome. A panic in fn is captured
// as the entry's error so waiters never deadlock; errors are memoised
// like values (the simulations here are deterministic, so retrying
// cannot succeed).
func (m *Memo[V]) Do(key string, fn func() (V, error)) (V, error) {
	//lint:ignore ctxflow ctx-less compat wrapper; DoCtx is the interruptible form
	return m.DoCtx(context.Background(), key, func(context.Context) (V, error) { return fn() })
}

// DoCtx is Do with cooperative cancellation. A result whose error is
// the context's cancellation is NOT memoised — the entry is dropped so
// a later retry (or a resumed run) recomputes instead of replaying the
// aborted attempt. Deterministic failures (including livelocks) are
// memoised like values, since retrying cannot change them. A panic
// whose value is an error is wrapped with %w so structured errors
// survive the memo boundary.
func (m *Memo[V]) DoCtx(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.hits++
		m.mu.Unlock()
		<-e.ready
		return e.val, e.err
	}
	e := &memoEntry[V]{ready: make(chan struct{})}
	m.entries[key] = e
	m.misses++
	m.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok {
					e.err = fmt.Errorf("parallel: memoised computation panicked: %w", err)
				} else {
					e.err = fmt.Errorf("parallel: memoised computation panicked: %v", r)
				}
			}
			close(e.ready)
		}()
		e.val, e.err = fn(ctx)
	}()
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		m.mu.Lock()
		if m.entries[key] == e {
			delete(m.entries, key)
		}
		m.mu.Unlock()
	}
	return e.val, e.err
}

// Snapshot copies every successfully completed entry — the persistable
// portion of the cache. In-flight and failed entries are skipped: a
// checkpoint must only replay results that are certainly final.
func (m *Memo[V]) Snapshot() map[string]V {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]V, len(m.entries))
	for k, e := range m.entries {
		select {
		case <-e.ready:
			if e.err == nil {
				out[k] = e.val
			}
		default:
		}
	}
	return out
}

// Seed inserts completed entries, as produced by Snapshot. Existing
// keys are left alone (the live entry may be in flight).
func (m *Memo[V]) Seed(vals map[string]V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range vals {
		if _, ok := m.entries[k]; ok {
			continue
		}
		e := &memoEntry[V]{ready: make(chan struct{}), val: v}
		close(e.ready)
		m.entries[k] = e
	}
}

// Stats returns the cumulative hit and miss counts. A hit is any Do
// call that found an existing entry, including one still in flight.
func (m *Memo[V]) Stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// Len returns the number of memoised keys.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Reset drops every entry and zeroes the counters.
func (m *Memo[V]) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = make(map[string]*memoEntry[V])
	m.hits, m.misses = 0, 0
}

// registered is what the registry needs of a memo, whatever its value
// type: every *Memo[V] satisfies it.
type registered interface {
	Reset()
	Stats() (hits, misses int64)
	Name() string
	export() (json.RawMessage, error)
	load(json.RawMessage) error
}

var registry struct {
	mu    sync.Mutex
	memos []registered
}

// ResetAllMemos clears every Memo created through NewMemo — the
// serial-vs-parallel determinism tests use it to force real
// re-simulation between runs.
func ResetAllMemos() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, m := range registry.memos {
		m.Reset()
	}
}

// export marshals the memo's completed entries for ExportMemos.
func (m *Memo[V]) export() (json.RawMessage, error) {
	return json.Marshal(m.Snapshot())
}

// load unmarshals a previously exported snapshot and seeds it.
func (m *Memo[V]) load(data json.RawMessage) error {
	var vals map[string]V
	if err := json.Unmarshal(data, &vals); err != nil {
		return err
	}
	m.Seed(vals)
	return nil
}

// ExportMemos snapshots every named memo into a name → entries map,
// the payload the checkpoint layer persists.
func ExportMemos() (map[string]json.RawMessage, error) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]json.RawMessage)
	for _, m := range registry.memos {
		if m.Name() == "" {
			continue
		}
		data, err := m.export()
		if err != nil {
			return nil, fmt.Errorf("parallel: export memo %q: %w", m.Name(), err)
		}
		out[m.Name()] = data
	}
	return out, nil
}

// ImportMemos seeds named memos from an ExportMemos payload. Names with
// no live memo are skipped (an old checkpoint may carry caches this
// build no longer has); a payload that does not unmarshal is an error.
func ImportMemos(snap map[string]json.RawMessage) error {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, m := range registry.memos {
		data, ok := snap[m.Name()]
		if m.Name() == "" || !ok {
			continue
		}
		if err := m.load(data); err != nil {
			return fmt.Errorf("parallel: import memo %q: %w", m.Name(), err)
		}
	}
	return nil
}

// Name returns the memo's checkpoint name ("" for anonymous memos).
func (m *Memo[V]) Name() string { return m.name }

// MemoStats sums hit and miss counts over every Memo created through
// NewMemo — the process-wide view the observability facade publishes.
func MemoStats() (hits, misses int64) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, m := range registry.memos {
		h, mi := m.Stats()
		hits += h
		misses += mi
	}
	return hits, misses
}
