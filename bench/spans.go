package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one report, granule or run
// share an ID; Parent names the span that caused this one.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	// StartNS and EndNS are nanoseconds since the traced pass began.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// N is how many timed samples a rig span aggregates (0 otherwise).
	N int `json:"n,omitempty"`
}

// spanLog keeps spans in memory until the run ends; a nil *spanLog (an
// untraced run) accepts and drops everything, so call sites need no
// branches.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records one span.
func (l *spanLog) add(name, id, parent string, start, end time.Time, n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{
		Name: name, ID: id, Parent: parent,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds(), N: n,
	})
	l.mu.Unlock()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for i := range l.spans {
		if err = enc.Encode(&l.spans[i]); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
