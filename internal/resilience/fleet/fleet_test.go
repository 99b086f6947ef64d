package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lpm/internal/resilience"
)

func TestDelayDeterministicAndBounded(t *testing.T) {
	t.Parallel()
	p := Defaults(42)
	for attempt := 0; attempt < 12; attempt++ {
		d1 := p.Delay(attempt)
		d2 := p.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: delay not deterministic: %v vs %v", attempt, d1, d2)
		}
		if d1 <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", attempt, d1)
		}
		if d1 > capDelay {
			t.Fatalf("attempt %d: delay %v exceeds cap %v", attempt, d1, capDelay)
		}
		// Jitter 0.5 means the delay is at least half the grown value.
		grown := baseDelay
		for i := 0; i < attempt && grown < capDelay; i++ {
			grown *= 2
		}
		if grown > capDelay {
			grown = capDelay
		}
		if d1 < grown/2 {
			t.Fatalf("attempt %d: delay %v below jitter floor %v", attempt, d1, grown/2)
		}
	}
}

func TestDelaySeedSelectsStream(t *testing.T) {
	t.Parallel()
	a, b := Defaults(1), Defaults(2)
	same := true
	for attempt := 0; attempt < 8; attempt++ {
		if a.Delay(attempt) != b.Delay(attempt) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter schedules")
	}
}

// TestDelayPinnedSchedule pins the backoff schedule bit for bit: the
// delays below were produced by the policy when its base, cap,
// multiplier and jitter were still fields, filled in by Defaults.
func TestDelayPinnedSchedule(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		seed uint64
		want [13]time.Duration
	}{
		{0, [13]time.Duration{39211800, 98678311, 102911802, 378730661, 669069694, 1460905707, 1965525509, 4385777627, 2619923271, 4008830060, 3097413945, 3690123520, 3612081209}},
		{1, [13]time.Duration{27185069, 51449862, 157376555, 311147059, 470131355, 898121050, 2797713830, 4286228289, 4969546646, 3989644577, 2983804743, 3862655231, 2836270174}},
		{42, [13]time.Duration{46002240, 81284292, 160440327, 392393966, 720991320, 1364551106, 1926635190, 3002679414, 4446699445, 3951637724, 2842711771, 2863624807, 3699966750}},
		{99, [13]time.Duration{29707437, 74757486, 167504499, 364833494, 568879766, 1221077048, 2646662685, 2914230039, 2827413992, 4736721114, 3531210461, 2794299166, 4396665752}},
	} {
		for attempt, want := range tc.want {
			if got := Defaults(tc.seed).Delay(attempt); got != want {
				t.Errorf("seed %d attempt %d: delay %d, want %d", tc.seed, attempt, got, want)
			}
		}
	}
}

// TestRetryHonorsContext: Sleep returns the context's error at once
// instead of waiting out a seconds-long backoff.
func TestRetryHonorsContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Defaults(0).Sleep(ctx, 12); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on a cancelled ctx: err=%v, want context.Canceled", err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "sched.journal")
	// Every op a coordinator has written, framed as older builds framed
	// them: the submit, issue, complete, join and gone records of builds
	// that journaled every decision, the "fallback" records of builds
	// that had an in-process fallback, and the requeue records (with
	// their retries and detail keys) of builds that retried transient
	// failures. An old journal must still replay, with its quarantines
	// carried and everything else skipped.
	records := []string{
		`{"seq":1,"tick":1,"op":"join","worker":"w1"}`,
		`{"seq":2,"tick":1,"op":"join","worker":"w2"}`,
		`{"seq":3,"tick":2,"op":"submit","kind":"sweep.point","key":"d8"}`,
		`{"seq":4,"tick":2,"op":"issue","worker":"w1","kind":"sweep.point","key":"d8"}`,
		`{"seq":5,"tick":5,"op":"requeue","kind":"sweep.point","key":"d8","retries":1,"detail":"transient: reset"}`,
		`{"seq":6,"tick":6,"op":"quarantine","worker":"w2","detail":"heartbeat death"}`,
		`{"seq":7,"tick":7,"op":"quarantine","worker":"w1","detail":"divergent result"}`,
		`{"seq":8,"tick":7,"op":"gone","worker":"w1","detail":"quarantined"}`,
		`{"seq":9,"tick":8,"op":"fallback","detail":"no workers, executing in-process"}`,
		`{"seq":10,"tick":9,"op":"complete","kind":"sweep.point","key":"d8"}`,
		`{"seq":11,"tick":9,"op":"readmit","worker":"w2"}`,
	}
	var data []byte
	for _, r := range records {
		data = append(data, resilience.EncodeEnvelope([]byte(r))...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(got), len(records))
	}
	for i, e := range got {
		var want Entry
		if err := json.Unmarshal([]byte(records[i]), &want); err != nil {
			t.Fatal(err)
		}
		if e != want {
			t.Fatalf("record %d: %+v, want %+v", i, e, want)
		}
	}

	st := RecoverState(got)
	if len(st.Quarantined) != 1 || st.Quarantined[0] != "w1" {
		t.Fatalf("quarantined=%v, want [w1] (w2 was readmitted)", st.Quarantined)
	}
	// Opening the journal to append folds the same state once, and
	// appends continue its sequence.
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.Recovered(), st) {
		t.Fatalf("OpenJournal recovered %+v, replay folds %+v", j.Recovered(), st)
	}
	if err := j.Append(Entry{Op: OpReadmit, Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := RecoverState(got); len(got) != len(records)+1 || got[len(records)].Seq != uint64(len(records)+1) || len(st.Quarantined) != 0 {
		t.Fatalf("after appending w1's readmission: %d records, quarantined %v; want %d and none",
			len(got), st.Quarantined, len(records)+1)
	}
}

func TestJournalAppendContinuesSequence(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "sched.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Op: "join", Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Entry{Op: "gone", Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Seq != 2 {
		t.Fatalf("got %+v, want 2 records with continued seq", got)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "sched.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Entry{Op: "submit", Key: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A kill -9 mid-Append can leave any prefix of the final frame.
	frameLen := len(whole) / 3
	for cut := 1; cut < frameLen; cut += 7 {
		torn := whole[:2*frameLen+cut]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReplayJournal(path)
		if err != nil {
			t.Fatalf("cut %d: torn tail rejected: %v", cut, err)
		}
		if len(got) != 2 {
			t.Fatalf("cut %d: replayed %d records, want 2", cut, len(got))
		}
	}
	// The final frame whole but scrambled — its CRC fails — is torn too.
	scrambled := append([]byte(nil), whole...)
	scrambled[len(whole)-2] ^= 0x40
	if err := os.WriteFile(path, scrambled, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReplayJournal(path); err != nil || len(got) != 2 {
		t.Fatalf("scrambled final frame: %d records, err %v; want 2 and no error", len(got), err)
	}
}

func TestJournalMidFileCorruptionRejected(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "sched.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Entry{Op: "submit", Key: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle record: this is silent damage,
	// not a torn tail, and replay must refuse rather than skip.
	frameLen := len(whole) / 3
	whole[frameLen+frameLen/2] ^= 0x40
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(path); err == nil {
		t.Fatal("mid-file corruption replayed without error")
	}
}

func TestJournalMissingFile(t *testing.T) {
	t.Parallel()
	_, err := ReplayJournal(filepath.Join(t.TempDir(), "absent"))
	if !os.IsNotExist(err) {
		t.Fatalf("missing journal: %v, want IsNotExist", err)
	}
}

func TestNilReceivers(t *testing.T) {
	t.Parallel()
	var j *Journal
	if err := j.Append(Entry{}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
