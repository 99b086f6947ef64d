package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"lpm/internal/fabric"
)

// TestWorkerHelpExitsClean pins the CI smoke contract: -help must be a
// success (main maps flag.ErrHelp to exit 0) and print the flag set.
func TestWorkerHelpExitsClean(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-help"}, &out, &errb)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-help: err = %v, want flag.ErrHelp (which main exits 0 on)", err)
	}
	for _, flagName := range []string{"-slots", "-name", "-retry", "-reconnect"} {
		if !strings.Contains(errb.String(), flagName) {
			t.Fatalf("-help output lacks %s:\n%s", flagName, errb.String())
		}
	}
}

// TestWorkerVersionExitsClean pins -version: exit 0, and the output must
// name the protocol version and every registered granule kind.
func TestWorkerVersionExitsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out, &errb); err != nil {
		t.Fatalf("-version: %v\n%s", err, errb.String())
	}
	got := out.String()
	want := []string{fmt.Sprintf("fabric-proto %d", fabric.ProtoVersion),
		"explore.sim", "sched.profile", "sched.alone"}
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Fatalf("-version output lacks %q:\n%s", w, got)
		}
	}
}

// TestWorkerRequiresAddress pins that a bare invocation fails loudly
// instead of riding the -help success path.
func TestWorkerRequiresAddress(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), nil, &out, &errb)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("no address: err = %v, want a hard error", err)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatalf("no usage line on stderr:\n%s", errb.String())
	}
}

// TestWorkerServesARealCoordinator drives run() end to end against an
// in-process coordinator: connect, serve a granule, exit 0 when the
// coordinator closes.
func TestWorkerServesARealCoordinator(t *testing.T) {
	c, err := fabric.Listen("127.0.0.1:0", fabric.Options{StraggleAfter: -1})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	var out, errb bytes.Buffer
	go func() {
		done <- run(context.Background(), []string{"-quiet", "-slots", "1", c.Addr()}, &out, &errb)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitWorkers(ctx, 1); err != nil {
		t.Fatalf("worker never joined: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker exit after coordinator close: %v\n%s", err, errb.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker never exited after the coordinator closed")
	}
}
