package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
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
		if d1 > p.Cap {
			t.Fatalf("attempt %d: delay %v exceeds cap %v", attempt, d1, p.Cap)
		}
		// Jitter 0.5 means the delay is at least half the grown value.
		grown := p.Base
		for i := 0; i < attempt && grown < p.Cap; i++ {
			grown *= 2
		}
		if grown > p.Cap {
			grown = p.Cap
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

func TestDelayZeroJitterMonotone(t *testing.T) {
	t.Parallel()
	p := RetryPolicy{Base: 10 * time.Millisecond, Cap: time.Second, Multiplier: 2}
	prev := time.Duration(0)
	for attempt := 0; attempt < 10; attempt++ {
		d := p.Delay(attempt)
		if d < prev {
			t.Fatalf("attempt %d: delay %v fell below previous %v", attempt, d, prev)
		}
		prev = d
	}
	if prev != time.Second {
		t.Fatalf("final delay %v, want cap %v", prev, time.Second)
	}
}

// TestRetryHonorsContext: Sleep returns the context's error at once
// instead of waiting out an hour-long backoff.
func TestRetryHonorsContext(t *testing.T) {
	t.Parallel()
	p := RetryPolicy{Base: time.Hour, Cap: time.Hour, Multiplier: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on a cancelled ctx: err=%v, want context.Canceled", err)
	}
}

func TestIsTransientClassification(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("model diverged"), false},
		{"remote transient", &RemoteError{Text: "t", Transient: true}, true},
		{"remote permanent", &RemoteError{Text: "p", Transient: false}, false},
		{"wrapped remote", fmt.Errorf("submit: %w", &RemoteError{Text: "t", Transient: true}), true},
		{"ctx canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"eof", io.EOF, true},
		{"unexpected eof", io.ErrUnexpectedEOF, true},
		{"net closed", net.ErrClosed, true},
		{"econnreset", syscall.ECONNRESET, true},
		{"econnrefused", syscall.ECONNREFUSED, true},
		{"epipe", syscall.EPIPE, true},
		{"op error", &net.OpError{Op: "dial", Err: errors.New("down")}, true},
	}
	for _, tc := range cases {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("%s: IsTransient=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRemoteErrorTextVerbatim(t *testing.T) {
	t.Parallel()
	e := &RemoteError{Text: "kind sweep.point: cache config: ways must divide sets", Transient: false}
	if e.Error() != e.Text {
		t.Fatalf("Error()=%q, want verbatim %q", e.Error(), e.Text)
	}
}

func TestHealthClassification(t *testing.T) {
	t.Parallel()
	p := HealthPolicy{SuspectAfter: 4, DeadAfter: 10}
	h := NewHealthTracker(p)
	h.Observe("w1", 100)
	cases := []struct {
		now  uint64
		want HealthState
	}{
		{100, Healthy}, {103, Healthy}, {104, Suspect}, {109, Suspect},
		{110, Dead}, {500, Dead},
	}
	for _, tc := range cases {
		if got := h.State("w1", tc.now); got != tc.want {
			t.Errorf("tick %d: state=%v, want %v", tc.now, got, tc.want)
		}
	}
	// Fresh proof of life resets the clock.
	h.Observe("w1", 120)
	if got := h.State("w1", 122); got != Healthy {
		t.Fatalf("after re-observe: %v, want healthy", got)
	}
	// Unknown workers are healthy until first observation.
	if got := h.State("ghost", 999); got != Healthy {
		t.Fatalf("unknown worker: %v, want healthy", got)
	}
	h.Forget("w1")
	if got := h.State("w1", 999); got != Healthy {
		t.Fatalf("forgotten worker: %v, want healthy", got)
	}
}

func TestHealthDisabled(t *testing.T) {
	t.Parallel()
	h := NewHealthTracker(HealthPolicy{})
	h.Observe("w", 0)
	if got := h.State("w", 1<<40); got != Healthy {
		t.Fatalf("disabled policy: %v, want healthy", got)
	}
}

func TestQuarantineStrikesAndProbation(t *testing.T) {
	t.Parallel()
	q := NewQuarantine(QuarantinePolicy{TripAfter: 3, Probation: 50})
	if q.Strike("w", 10) || q.Strike("w", 11) {
		t.Fatal("tripped before the threshold")
	}
	if !q.Strike("w", 12) {
		t.Fatal("third strike did not trip")
	}
	if !q.Blocked("w", 12) || !q.Blocked("w", 61) {
		t.Fatal("not blocked during probation")
	}
	if q.Blocked("w", 62) {
		t.Fatal("still blocked after probation expired")
	}
	if q.Strikes("w") != 0 {
		t.Fatalf("strikes=%d after readmission, want clean slate", q.Strikes("w"))
	}
}

func TestQuarantineNowAndPermanent(t *testing.T) {
	t.Parallel()
	q := NewQuarantine(QuarantinePolicy{TripAfter: 3, Probation: 0})
	if !q.QuarantineNow("liar", 5) {
		t.Fatal("QuarantineNow did not trip")
	}
	if q.QuarantineNow("liar", 6) {
		t.Fatal("second QuarantineNow reported a fresh trip")
	}
	if !q.Blocked("liar", 1<<40) {
		t.Fatal("permanent quarantine expired")
	}
}

func TestQuarantineSnapshotRestore(t *testing.T) {
	t.Parallel()
	q := NewQuarantine(QuarantinePolicy{TripAfter: 1, Probation: 100})
	q.Strike("a", 10)
	q.Strike("b", 20)
	snap := q.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot %v, want 2 names", snap)
	}
	q2 := NewQuarantine(QuarantinePolicy{TripAfter: 1, Probation: 100})
	q2.Restore(snap, 0)
	if !q2.Blocked("a", 50) || !q2.Blocked("b", 99) {
		t.Fatal("restored quarantine not blocking")
	}
	if q2.Blocked("a", 100) {
		t.Fatal("restored probation did not expire")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "sched.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every op a coordinator has written, including the "fallback"
	// records of builds that had an in-process fallback: an old journal
	// must still replay, with retry charges and quarantines carried.
	records := []Entry{
		{Tick: 1, Op: OpJoin, Worker: "w1"},
		{Tick: 1, Op: OpJoin, Worker: "w2"},
		{Tick: 2, Op: OpSubmit, Kind: "sweep.point", Key: "d8"},
		{Tick: 2, Op: OpIssue, Kind: "sweep.point", Key: "d8", Worker: "w1"},
		{Tick: 5, Op: OpRequeue, Kind: "sweep.point", Key: "d8", Retries: 1, Detail: "worker suspect"},
		{Tick: 6, Op: OpQuarantine, Worker: "w2", Detail: "heartbeat death"},
		{Tick: 7, Op: OpQuarantine, Worker: "w1", Detail: "divergent result"},
		{Tick: 7, Op: OpGone, Worker: "w1", Detail: "quarantined"},
		{Tick: 8, Op: "fallback", Detail: "no workers, executing in-process"},
		{Tick: 9, Op: OpComplete, Kind: "sweep.point", Key: "d8"},
		{Tick: 9, Op: OpReadmit, Worker: "w2"},
	}
	for _, e := range records {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
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
		if e.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, e.Seq)
		}
		if e.Op != records[i].Op || e.Key != records[i].Key || e.Worker != records[i].Worker {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, e, records[i])
		}
	}

	st := RecoverState(got)
	if st.Retries[GranuleKey("sweep.point", "d8")] != 1 {
		t.Fatalf("retries=%d, want 1", st.Retries[GranuleKey("sweep.point", "d8")])
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0] != "w1" {
		t.Fatalf("quarantined=%v, want [w1] (w2 was readmitted)", st.Quarantined)
	}
}

func TestJournalAppendContinuesSequence(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "sched.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Op: OpJoin, Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Entry{Op: OpGone, Worker: "w1"}); err != nil {
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
		if err := j.Append(Entry{Op: OpSubmit, Key: fmt.Sprintf("k%d", i)}); err != nil {
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
}

func TestJournalMidFileCorruptionRejected(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "sched.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Entry{Op: OpSubmit, Key: fmt.Sprintf("k%d", i)}); err != nil {
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
	var h *HealthTracker
	h.Observe("w", 1)
	h.Forget("w")
	if h.State("w", 1) != Healthy {
		t.Fatal("nil tracker not healthy")
	}
	var q *Quarantine
	if q.Strike("w", 1) || q.Blocked("w", 1) || q.QuarantineNow("w", 1) {
		t.Fatal("nil quarantine tripped")
	}
	q.Restore([]string{"w"}, 1)
	if q.Snapshot() != nil || q.Strikes("w") != 0 {
		t.Fatal("nil quarantine returned state")
	}
	var j *Journal
	if err := j.Append(Entry{}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
