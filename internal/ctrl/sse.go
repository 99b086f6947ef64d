package ctrl

// Server-sent events for the per-run timeline: each closed window
// streams to the client as it lands, with drop accounting made visible
// as its own event type when a slow consumer fell more than its lag
// bound behind.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// SSEHandler streams a run's hub as text/event-stream. Event types:
//
//	event: window  data: {timeseries.Window}
//	event: drop    data: {"dropped": N}   — N events skipped just before
//	                                        the next window
//	event: done    data: {}               — the run finished; stream ends
//
// Window and done frames carry an `id:` line with the event's hub
// sequence number; a reconnecting client sends it back as
// `Last-Event-ID` (standard EventSource behavior) and catch-up resumes
// strictly after it — a reconnect mid-history never replays a window
// the client already saw.
//
// The stream also ends when the client disconnects or the server drains
// on shutdown (both arrive through the request context).
func SSEHandler(hub *Hub) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		var after uint64
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "malformed Last-Event-ID", http.StatusBadRequest)
				return
			}
			after = id
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		fl.Flush()

		sub := hub.SubscribeAfter(0, after)
		defer sub.Close()
		for {
			e, dropped, ok := sub.Next(r.Context())
			if !ok {
				return
			}
			if dropped > 0 {
				if err := writeSSE(w, "drop", 0, struct {
					Dropped uint64 `json:"dropped"`
				}{dropped}); err != nil {
					return
				}
			}
			switch e.Type {
			case "window":
				if err := writeSSE(w, "window", e.Seq, e.Window); err != nil {
					return
				}
			case "done":
				_ = writeSSE(w, "done", e.Seq, struct{}{})
				fl.Flush()
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE emits one SSE frame with a JSON data payload; a non-zero id
// adds the `id:` line that feeds the client's Last-Event-ID.
func writeSSE(w http.ResponseWriter, event string, id uint64, data any) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if id > 0 {
		_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", event, id, b)
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}
