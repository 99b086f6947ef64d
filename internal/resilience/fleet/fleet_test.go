package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
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

func TestJournalRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "sched.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every op a coordinator has written, including the submit, issue,
	// complete, join and gone records of builds that journaled every
	// decision and the "fallback" records of builds that had an
	// in-process fallback: an old journal must still replay, with retry
	// charges and quarantines carried.
	records := []Entry{
		{Tick: 1, Op: "join", Worker: "w1"},
		{Tick: 1, Op: "join", Worker: "w2"},
		{Tick: 2, Op: "submit", Kind: "sweep.point", Key: "d8"},
		{Tick: 2, Op: "issue", Kind: "sweep.point", Key: "d8", Worker: "w1"},
		{Tick: 5, Op: OpRequeue, Kind: "sweep.point", Key: "d8", Retries: 1, Detail: "worker suspect"},
		{Tick: 6, Op: OpQuarantine, Worker: "w2", Detail: "heartbeat death"},
		{Tick: 7, Op: OpQuarantine, Worker: "w1", Detail: "divergent result"},
		{Tick: 7, Op: "gone", Worker: "w1", Detail: "quarantined"},
		{Tick: 8, Op: "fallback", Detail: "no workers, executing in-process"},
		{Tick: 9, Op: "complete", Kind: "sweep.point", Key: "d8"},
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
	if st.Retries["d8"] != 1 {
		t.Fatalf("retries=%d, want 1", st.Retries["d8"])
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0] != "w1" {
		t.Fatalf("quarantined=%v, want [w1] (w2 was readmitted)", st.Quarantined)
	}
	// Opening the journal to append folds the same state once.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(j2.Recovered(), st) {
		t.Fatalf("OpenJournal recovered %+v, replay folds %+v", j2.Recovered(), st)
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
