package ctrl

// Admission tests: what an outsider can POST to /api/v1/runs must end
// as an admitted run (202) or a 4xx in the apiError envelope — never a
// 5xx, a panic, a hang, or a run whose budget outlives Cancel.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lpm"
)

// submit POSTs body to a fresh registry's API mux with a stub runner,
// waits for every admitted run to finish, and returns the recorder.
func submit(t testing.TB, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	reg := NewRegistry(context.Background(), Config{Runner: &stubRunner{}, MaxConcurrent: 1})
	defer reg.Drain()
	rec := httptest.NewRecorder()
	NewAPIMux(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/runs", bytes.NewReader(body)))
	return rec
}

// checkResponse asserts the response is 202 with a RunStatus or a 4xx
// with the apiError envelope, and returns the status code.
func checkResponse(t testing.TB, rec *httptest.ResponseRecorder) int {
	t.Helper()
	switch code := rec.Code; {
	case code == http.StatusAccepted:
		var st RunStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.API != APIVersion || st.ID == "" {
			t.Fatalf("202 without a run status (%v): %s", err, rec.Body)
		}
	case code >= 400 && code < 500:
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.API != APIVersion || e.Error == "" {
			t.Fatalf("%d without the error envelope (%v): %s", code, err, rec.Body)
		}
	default:
		t.Fatalf("status %d: %s", code, rec.Body)
	}
	return rec.Code
}

func TestSubmitAdmissionCaps(t *testing.T) {
	for _, c := range []struct {
		name string
		body string
		want int
	}{
		{"at cap", fmt.Sprintf(`{"workload":"403.gcc","instructions":%d,"warmup":%d}`,
			lpm.MaxRunInstructions, lpm.MaxRunInstructions), http.StatusAccepted},
		{"instructions over cap", fmt.Sprintf(`{"workload":"403.gcc","instructions":%d}`,
			lpm.MaxRunInstructions+1), http.StatusBadRequest},
		{"warmup over cap", fmt.Sprintf(`{"workload":"403.gcc","warmup":%d}`,
			lpm.MaxRunInstructions+1), http.StatusBadRequest},
		{"1e16 instructions", `{"workload":"403.gcc","instructions":10000000000000000}`, http.StatusBadRequest},
		{"oversize body", `{"workload":"403.gcc","tenant":"` + strings.Repeat("a", MaxSpecBytes) + `"}`,
			http.StatusRequestEntityTooLarge},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := checkResponse(t, submit(t, []byte(c.body))); got != c.want {
				t.Fatalf("status %d, want %d", got, c.want)
			}
		})
	}
}

// TestSubmitDecodesStrictly: a field the spec does not have, such as the
// removed "adaptive" or a misspelling, is refused with a 400 naming it
// rather than silently ignored, and so is data after the spec object.
func TestSubmitDecodesStrictly(t *testing.T) {
	for _, c := range []struct{ body, field string }{
		{`{"workload":"429.mcf","adaptive":true}`, `"adaptive"`},
		{`{"workload":"429.mcf","instrutions":5}`, `"instrutions"`},
		{`{"workload":"403.gcc"} {"workload":"429.mcf"}`, ""},
		{`{"workload":"403.gcc"} x`, ""},
	} {
		rec := submit(t, []byte(c.body))
		if got := checkResponse(t, rec); got != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.body, got)
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, c.field) {
			t.Fatalf("%s: error does not name %s: %s", c.body, c.field, rec.Body)
		}
	}
	if got := checkResponse(t, submit(t, []byte(`{"workload":"403.gcc"}`+"\n"))); got != http.StatusAccepted {
		t.Fatalf("a spec with a trailing newline: status %d, want 202", got)
	}
}

// FuzzSubmitRunSpec drives arbitrary bodies through the real submit
// handler (make fuzz runs it for 15 s).
func FuzzSubmitRunSpec(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"403.gcc"}`,
		`{"tenant":"acme","workload":"429.mcf","instructions":300000,"warmup":80000,"warmup_fast":true,"ts_window":256,"watchdog":1}`,
		`{"workload":"429.mcf","adaptive":true}`,
		`{"workload":"no.such"}`,
		`{"workload":"403.gcc","instructions":18446744073709551615}`,
		`{"workload":"403.gcc","instructions":-1}`,
		`{"workload":"403.gcc"} {"workload":"429.mcf"}`,
		`[]`, `null`, `{`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkResponse(t, submit(t, body))
	})
}
