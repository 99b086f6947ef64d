package faultinject

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// startEcho runs a TCP echo server and returns its address.
func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer func() { _ = c.Close() }()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

func dialProxy(t *testing.T, p *NetProxy) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestNetProxyPassThrough(t *testing.T) {
	t.Parallel()
	p, err := NewNetProxy(startEcho(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	msg := []byte("hello through the proxy")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := readFull(c, got, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
}

func TestNetProxyPartitionStallsWithoutClose(t *testing.T) {
	t.Parallel()
	p, err := NewNetProxy(startEcho(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)

	p.Partition()
	if _, err := c.Write([]byte("stalled")); err != nil {
		t.Fatalf("write into partition failed: %v (connection should stay open)", err)
	}
	// The bytes must NOT come back while partitioned.
	got := make([]byte, 7)
	if _, err := readFull(c, got, 300*time.Millisecond); err == nil {
		t.Fatal("read succeeded during partition")
	}
	// Healing releases the parked bytes — nothing was lost.
	p.Heal()
	if _, err := readFull(c, got, 2*time.Second); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if string(got) != "stalled" {
		t.Fatalf("after heal got %q", got)
	}
}

func TestNetProxyCorruptNextFlipsOneBit(t *testing.T) {
	t.Parallel()
	p, err := NewNetProxy(startEcho(t), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)

	p.CorruptNext(1)
	msg := []byte("abcdefgh")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := readFull(c, got, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range msg {
		diff += popcount(msg[i] ^ got[i])
	}
	if diff != 1 {
		t.Fatalf("%d bits differ, want exactly 1 (%q vs %q)", diff, msg, got)
	}
	// Fault is one-shot: the next chunk passes clean.
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := readFull(c, got, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("second chunk corrupted too: %q", got)
	}
}

func TestNetProxyCloseSevers(t *testing.T) {
	t.Parallel()
	p, err := NewNetProxy(startEcho(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := dialProxy(t, p)
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if _, err := readFull(c, one, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	p.Close()
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err = c.Read(one)
	if err == nil {
		t.Fatal("read succeeded after Close")
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("read timed out after Close: the proxied connection was left open")
	}
}

func readFull(c net.Conn, buf []byte, timeout time.Duration) (int, error) {
	if err := c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return 0, err
	}
	total := 0
	for total < len(buf) {
		n, err := c.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
