package ctrl

// Single-run exposition handlers: Prometheus text on /metrics, the JSON
// timeline on /timeline. These used to live in cmd/lpmrun; they moved
// here so lpmrun -serve and the control plane's per-run endpoints are
// one code path with byte-identical output.

import (
	"bytes"
	"encoding/json"
	"net/http"
)

// MetricsHandler serves the run's latest metrics snapshot plus its
// timeline series in Prometheus text exposition format 0.0.4.
func MetricsHandler(hub *Hub) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := hub.Snapshot().WritePromText(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		ser, _ := hub.Timeline()
		if err := ser.WritePromText(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The scrape response is best-effort: a vanished client is its
		// own problem.
		_, _ = w.Write(buf.Bytes())
	}
}

// TimelineHandler serves the run's retained windowed series (the
// newest timeseries.DefaultMaxWindows windows, older ones counted in
// dropped) as a lpm-timeline/v1 JSON document.
func TimelineHandler(hub *Hub) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ser, done := hub.Timeline()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(TimelineDoc{Schema: TimelineSchema, Done: done, Series: ser})
	}
}

// NewExpoMux builds the single-run serving mux lpmrun -serve exposes:
// /metrics and /timeline.
func NewExpoMux(hub *Hub) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", MetricsHandler(hub))
	mux.HandleFunc("/timeline", TimelineHandler(hub))
	return mux
}
