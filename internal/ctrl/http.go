package ctrl

// The lpm-ctrl/v1 HTTP surface:
//
//	POST /api/v1/runs               submit a RunSpec, returns RunStatus
//	GET  /api/v1/runs               list runs
//	GET  /api/v1/runs/{id}          one run's status
//	POST /api/v1/runs/{id}/cancel   cancel (pending or running)
//	GET  /api/v1/runs/{id}/timeline lpm-timeline/v1 document
//	GET  /api/v1/runs/{id}/metrics  per-run Prometheus text
//	GET  /api/v1/runs/{id}/events   SSE window stream
//	GET  /api/v1/runs/{id}/result   final lpm-report/v2 document
//	GET  /metrics                   fleet-wide Prometheus text
//
// The fleet endpoint renders, in one scrape, the control plane's own
// ctrl.* series (unlabeled) and every run's latest obs snapshot labeled
// run/tenant.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
)

// NewAPIMux builds the control-plane handler over reg.
func NewAPIMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
		if err != nil {
			status := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				status = http.StatusRequestEntityTooLarge
			}
			writeErr(w, status, "decode run spec: "+err.Error())
			return
		}
		st, err := reg.Submit(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, reg.List())
	})
	mux.HandleFunc("GET /api/v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := reg.Get(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /api/v1/runs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		st, err := reg.Cancel(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /api/v1/runs/{id}/timeline", func(w http.ResponseWriter, r *http.Request) {
		hub, ok := reg.handles(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such run")
			return
		}
		TimelineHandler(hub)(w, r)
	})
	mux.HandleFunc("GET /api/v1/runs/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		hub, ok := reg.handles(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such run")
			return
		}
		MetricsHandler(hub)(w, r)
	})
	mux.HandleFunc("GET /api/v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		hub, ok := reg.handles(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such run")
			return
		}
		SSEHandler(hub)(w, r)
	})
	mux.HandleFunc("GET /api/v1/runs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		doc, state, ok := reg.resultDoc(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such run")
			return
		}
		if doc == nil {
			writeErr(w, http.StatusConflict, "run "+string(state)+": no result document")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(doc)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		seen := make(map[string]bool)
		ctrlSnap, runs := reg.fleetSnapshots()
		if err := ctrlSnap.WritePromLabeled(&buf, "", seen); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for _, re := range runs {
			labels := `run="` + promLabel(re.id) + `",tenant="` + promLabel(re.tenant) + `"`
			if err := re.snap.WritePromLabeled(&buf, labels, seen); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
	return mux
}

// decodeSpec reads one RunSpec object from body. Decoding is strict, so
// a client never believes a setting took effect that the server
// ignored: a field the spec does not have is an error naming it, and so
// is data after the object.
func decodeSpec(body io.Reader) (RunSpec, error) {
	var spec RunSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		if err == nil {
			err = errors.New("data after the run spec object")
		}
		return spec, err
	}
	return spec, nil
}

// writeJSON writes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr writes the JSON error envelope.
func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{API: APIVersion, Error: msg})
}

// promLabel escapes a value for a Prometheus label position.
func promLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
