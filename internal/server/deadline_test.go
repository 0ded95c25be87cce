package server

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// deadlineConn wraps an accepted connection and records whether every
// reply write happened under an armed write deadline — the wedge-defence
// regression guard for Frontend.serveConn: a peer that stops draining its socket
// must not be able to park a reply goroutine forever.
type deadlineConn struct {
	net.Conn
	mu       sync.Mutex
	armed    int // SetWriteDeadline calls with a non-zero time
	writes   int
	unarmed  int // writes issued before any deadline was armed
	rearmGap int // writes not preceded by their own re-arm
}

func (d *deadlineConn) SetWriteDeadline(t time.Time) error {
	d.mu.Lock()
	if !t.IsZero() {
		d.armed++
	}
	d.mu.Unlock()
	return d.Conn.SetWriteDeadline(t)
}

func (d *deadlineConn) Write(p []byte) (int, error) {
	d.mu.Lock()
	d.writes++
	if d.armed == 0 {
		d.unarmed++
	}
	if d.armed < d.writes {
		d.rearmGap++
	}
	d.mu.Unlock()
	return d.Conn.Write(p)
}

// TestReplyWritesAreDeadlined drives pings and queries through a server
// whose accepted conns record deadline arming, and requires every binary
// reply write (pong, answers) to be freshly deadlined.
func TestReplyWritesAreDeadlined(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)

	var mu sync.Mutex
	var conns []*deadlineConn
	s := startServer(t, dir, Config{
		WrapConn: func(c net.Conn) net.Conn {
			d := &deadlineConn{Conn: c}
			mu.Lock()
			conns = append(conns, d)
			mu.Unlock()
			return d
		},
	})
	c := dial(t, s)

	if err := c.Ping(time.Second); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if _, err := c.Value(boardOf(testStones, 0)); err != nil {
		t.Fatalf("value: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, d := range conns {
		d.mu.Lock()
		total += d.writes
		if d.unarmed > 0 {
			t.Errorf("%d reply writes before any SetWriteDeadline", d.unarmed)
		}
		if d.rearmGap > 0 {
			t.Errorf("%d reply writes reused a stale deadline instead of re-arming", d.rearmGap)
		}
		d.mu.Unlock()
	}
	if total == 0 {
		t.Fatal("no reply writes observed; the recorder is not in the path")
	}
}

// tornWriteConn fails its first Write mid-frame — 4 bytes out, then an
// error, the way an expiring write deadline lands — and behaves from
// then on.
type tornWriteConn struct {
	net.Conn
	torn atomic.Bool
}

func (c *tornWriteConn) Write(p []byte) (int, error) {
	if len(p) > 4 && c.torn.CompareAndSwap(false, true) {
		n, _ := c.Conn.Write(p[:4])
		return n, errors.New("injected: write deadline expired mid-frame")
	}
	return c.Conn.Write(p)
}

// TestFailedReplyWriteClosesConn: a reply write that fails mid-frame
// must cost the connection, not the framing. The first connection's
// first reply is torn after its length header; the client has to see a
// connection error — not wait on the half frame, not decode the next
// reply as its tail — and the same Client must answer correctly again
// after redialing.
func TestFailedReplyWriteClosesConn(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)

	var wrapped atomic.Int32
	s := startServer(t, dir, Config{
		WrapConn: func(c net.Conn) net.Conn {
			if wrapped.Add(1) == 1 {
				return &tornWriteConn{Conn: c}
			}
			return c
		},
	})
	c, err := DialConfig(s.Addr(), ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	b := boardOf(testStones, 0)
	start := time.Now()
	if v, err := c.Value(b); err == nil {
		t.Fatalf("value over a torn reply = %d, want a connection error", v)
	} else if time.Since(start) > 4*time.Second {
		t.Fatalf("torn reply surfaced only as a call timeout (%v): the connection was left open", err)
	}
	got, err := c.Value(b)
	if err != nil {
		t.Fatalf("call after the torn reply: %v", err)
	}
	if want := l.Value(b); got != want {
		t.Errorf("value after reconnect = %d, ladder says %d", got, want)
	}
	if r := c.Stats().Reconnects; r != 1 {
		t.Errorf("Reconnects = %d, want 1", r)
	}
}
