package netchaos

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"pipesched/internal/telemetry"
)

// payloadServer is a TCP backend that writes payload to every
// connection and closes cleanly. Returns its address and a closer.
func payloadServer(t *testing.T, payload []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = c.Write(payload)
			}(c)
		}
	}()
	return ln.Addr().String()
}

// dialRead connects through the proxy and reads until EOF or error,
// returning whatever arrived and the terminal error. A dial error is that
// connection's terminal error too: on loopback a dropped connection can
// be reset before the non-blocking connect reports completion.
func dialRead(addr string) ([]byte, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial proxy: %w", err)
	}
	defer c.Close()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf bytes.Buffer
	_, rerr := io.Copy(&buf, c)
	return buf.Bytes(), rerr
}

func newProxy(t *testing.T, target string) *Proxy {
	t.Helper()
	p, err := New("127.0.0.1:0", target, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestProxyPassThrough(t *testing.T) {
	payload := bytes.Repeat([]byte("pipesched"), 100)
	p := newProxy(t, payloadServer(t, payload))
	got, err := dialRead(p.Addr())
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted in transit: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestProxyLatency(t *testing.T) {
	payload := []byte("slow answer")
	p := newProxy(t, payloadServer(t, payload))
	p.SetPlan(Plan{Latency: 150 * time.Millisecond}, 1)
	start := time.Now()
	got, err := dialRead(p.Addr())
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read: %v (%d bytes)", err, len(got))
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("latency fault not applied: elapsed %v", elapsed)
	}
	if p.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", p.Fired())
	}
}

func TestProxyDropMidBody(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 64<<10)
	p := newProxy(t, payloadServer(t, payload))
	p.SetPlan(Plan{DropAfter: 1024}, 1)
	got, err := dialRead(p.Addr())
	if err == nil {
		t.Fatalf("dropped connection must surface a read error, got clean EOF after %d bytes", len(got))
	}
	if len(got) >= len(payload) {
		t.Fatal("drop fault forwarded the whole payload")
	}
}

func TestProxyTruncate(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 64<<10)
	p := newProxy(t, payloadServer(t, payload))
	p.SetPlan(Plan{TruncateAfter: 2048}, 1)
	got, err := dialRead(p.Addr())
	// Truncation is a CLEAN close: the client sees a normal EOF around a
	// short document — the JSON layer's "unexpected EOF", not a reset.
	if err != nil {
		t.Fatalf("truncate must close cleanly, got %v", err)
	}
	if int64(len(got)) != 2048 {
		t.Fatalf("got %d bytes, want exactly 2048", len(got))
	}
}

func TestProxyPartition(t *testing.T) {
	payload := []byte("reachable")
	p := newProxy(t, payloadServer(t, payload))

	// Healthy first.
	if got, err := dialRead(p.Addr()); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("pre-partition read: %v", err)
	}

	p.Partition(true)
	if !p.Partitioned() {
		t.Fatal("Partitioned() = false after Partition(true)")
	}
	c, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err == nil {
		// Accept-then-reset: the dial may succeed but the first read dies.
		_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if _, rerr := c.Read(buf); rerr == nil {
			t.Fatal("read succeeded across a partition")
		}
		c.Close()
	}

	// Heal: traffic flows again without a new listener.
	p.Partition(false)
	if got, err := dialRead(p.Addr()); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-heal read: %v", err)
	}
}

func TestProxyPartitionSeversExisting(t *testing.T) {
	// Backend that writes forever until its conn dies.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				chunk := bytes.Repeat([]byte("z"), 1024)
				for {
					if _, err := c.Write(chunk); err != nil {
						return
					}
					time.Sleep(10 * time.Millisecond)
				}
			}(c)
		}
	}()

	p := newProxy(t, ln.Addr().String())
	c, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 1024)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("stream not flowing before partition: %v", err)
	}

	p.Partition(true)
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Drain whatever was in flight; the stream must die, not hang.
	for {
		if _, err := c.Read(buf); err != nil {
			return // severed — pass
		}
	}
}

func TestProxyNthDeterminism(t *testing.T) {
	payload := bytes.Repeat([]byte("d"), 8192)
	target := payloadServer(t, payload)
	// Two identical runs: the 2nd connection faults, the others don't.
	for run := 0; run < 2; run++ {
		p := newProxy(t, target)
		p.SetPlan(Plan{DropAfter: 512, Nth: 2}, 42)
		for i := 1; i <= 3; i++ {
			got, err := dialRead(p.Addr())
			if i == 2 {
				if err == nil {
					t.Fatalf("run %d conn %d: Nth=2 plan did not fire", run, i)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("run %d conn %d: unfaulted connection failed: %v", run, i, err)
			}
		}
		if p.Fired() != 1 {
			t.Fatalf("run %d: Fired = %d, want 1", run, p.Fired())
		}
		p.Close()
	}
}

func TestProxyTimesBudget(t *testing.T) {
	payload := bytes.Repeat([]byte("b"), 8192)
	p := newProxy(t, payloadServer(t, payload))
	p.SetPlan(Plan{DropAfter: 512, Times: 2}, 7)
	failures := 0
	for i := 0; i < 5; i++ {
		if _, err := dialRead(p.Addr()); err != nil {
			failures++
		}
	}
	if failures != 2 {
		t.Fatalf("failures = %d, want exactly the Times=2 budget", failures)
	}
	if p.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", p.Fired())
	}
}

func TestProxySetTargetSeversAndRepoints(t *testing.T) {
	oldPayload := []byte("old worker")
	newPayload := []byte("new worker")
	p := newProxy(t, payloadServer(t, oldPayload))
	if got, _ := dialRead(p.Addr()); !bytes.Equal(got, oldPayload) {
		t.Fatalf("pre-retarget read: %q", got)
	}
	p.SetTarget(payloadServer(t, newPayload))
	if got, _ := dialRead(p.Addr()); !bytes.Equal(got, newPayload) {
		t.Fatalf("post-retarget read: %q", got)
	}
}

func TestProxyBandwidthCap(t *testing.T) {
	payload := bytes.Repeat([]byte("w"), 4096)
	p := newProxy(t, payloadServer(t, payload))
	// 16 KiB/s over 4 KiB ≈ 250ms minimum.
	p.SetPlan(Plan{BandwidthBPS: 16 << 10}, 1)
	start := time.Now()
	got, err := dialRead(p.Addr())
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read: %v (%d bytes)", err, len(got))
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("bandwidth cap not applied: %d bytes in %v", len(got), elapsed)
	}
}
