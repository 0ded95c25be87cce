// Package faultnet injects network faults into net.Conn traffic for
// testing and operational drills. The paper's speedup-48 result assumes
// a cluster where nothing fails mid-run; the deployable engines
// (internal/remote, internal/server) cannot, so their failure handling
// needs a wire that actually misbehaves. A Plan wraps connections with a
// deterministic, seedable fault schedule: added latency, short reads and
// writes (frames delivered byte by byte), a hard cut after a byte budget
// (mid-frame, the way real resets land), and — nastier — a wedge, where
// the connection stays open but no byte ever moves again.
//
// Determinism matters: the same Plan and seed produce the same fault
// schedule, so a failing run can be replayed. Wedged reads and writes
// honor SetReadDeadline/SetWriteDeadline, exactly like a silent peer on
// a real TCP stack — code that sets no deadline hangs forever, which is
// the failure mode this package exists to expose.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrCut is the base error for connections killed by a Plan's byte
// budget; errors.Is(err, ErrCut) identifies injected cuts.
var ErrCut = errors.New("faultnet: connection cut by fault plan")

// Plan is a deterministic fault schedule for one connection. The zero
// Plan injects nothing and is a transparent wrapper.
type Plan struct {
	// Seed makes the schedule reproducible; two conns wrapped with the
	// same seed misbehave identically.
	Seed int64
	// MaxRead caps the bytes returned per Read (short reads); 0 = off.
	MaxRead int
	// MaxWrite splits each Write into chunks of at most this many bytes
	// (short writes, mid-frame delivery); 0 = off.
	MaxWrite int
	// Delay is added before one in DelayEvery I/O operations; DelayEvery
	// 0 with a non-zero Delay delays every operation.
	Delay      time.Duration
	DelayEvery int
	// CutAfter kills the connection after this many bytes have crossed
	// it (reads + writes, counted on this endpoint); 0 = never. The cut
	// lands wherever the budget runs out — usually mid-frame.
	CutAfter int64
	// Wedge turns the cut into a stall: instead of erroring, reads and
	// writes block until the conn is closed or a deadline expires, like
	// a peer that silently stopped. Requires CutAfter > 0.
	Wedge bool
}

// Wrap applies the plan to a connection.
func (p Plan) Wrap(c net.Conn) net.Conn {
	fc := &conn{Conn: c, plan: p, unwedge: make(chan struct{})}
	fc.rng = rand.New(rand.NewSource(p.Seed))
	fc.budget = p.CutAfter
	return fc
}

// Wrapper returns a per-connection wrapping function deriving a distinct
// deterministic seed for each successive connection (Seed, Seed+1, ...).
func (p Plan) Wrapper() func(net.Conn) net.Conn {
	var mu sync.Mutex
	next := p.Seed
	return func(c net.Conn) net.Conn {
		mu.Lock()
		q := p
		q.Seed = next
		next++
		mu.Unlock()
		return q.Wrap(c)
	}
}

// Listen wraps a listener so every accepted connection carries the plan
// (each with its own derived seed).
func (p Plan) Listen(l net.Listener) net.Listener {
	return &listener{Listener: l, wrap: p.Wrapper()}
}

type listener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// Parse reads a comma-separated fault spec for a -faults flag:
//
//	seed=7,maxread=3,maxwrite=5,delay=2ms,every=10,cut=4096,wedge
//
// An empty spec is the zero (transparent) plan.
func Parse(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, hasVal := strings.Cut(strings.TrimSpace(field), "=")
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "maxread":
			p.MaxRead, err = strconv.Atoi(val)
		case "maxwrite":
			p.MaxWrite, err = strconv.Atoi(val)
		case "delay":
			p.Delay, err = time.ParseDuration(val)
		case "every":
			p.DelayEvery, err = strconv.Atoi(val)
		case "cut":
			p.CutAfter, err = strconv.ParseInt(val, 10, 64)
		case "wedge":
			if hasVal {
				return p, fmt.Errorf("faultnet: wedge takes no value")
			}
			p.Wedge = true
		default:
			return p, fmt.Errorf("faultnet: unknown fault %q (want seed, maxread, maxwrite, delay, every, cut, wedge)", key)
		}
		if err != nil {
			return p, fmt.Errorf("faultnet: bad %s: %w", key, err)
		}
	}
	if p.Wedge && p.CutAfter == 0 {
		return p, fmt.Errorf("faultnet: wedge needs cut=<bytes>")
	}
	return p, nil
}

// String renders the plan in Parse's syntax.
func (p Plan) String() string {
	var parts []string
	add := func(k string, v int64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, v))
		}
	}
	add("seed", p.Seed)
	add("maxread", int64(p.MaxRead))
	add("maxwrite", int64(p.MaxWrite))
	if p.Delay != 0 {
		parts = append(parts, "delay="+p.Delay.String())
		add("every", int64(p.DelayEvery))
	}
	add("cut", p.CutAfter)
	if p.Wedge {
		parts = append(parts, "wedge")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// conn is the fault-injecting endpoint. The mutex covers the schedule
// state only; blocking I/O runs outside it so Reads and Writes stay
// concurrent.
type conn struct {
	net.Conn
	plan Plan

	mu     sync.Mutex
	rng    *rand.Rand
	ops    int64
	budget int64 // bytes until the cut; meaningful when CutAfter > 0
	cut    bool

	dlMu          sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time

	closeOnce sync.Once
	unwedge   chan struct{} // closed by Close; unblocks wedged I/O
}

// timeoutError satisfies net.Error the way the kernel's deadline
// expiry does.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultnet: i/o timeout on wedged connection" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// step advances the schedule by one operation of up to n bytes and
// returns how many bytes may cross (0 with cut=true once the budget is
// spent) plus any delay to apply first. A write's bytes are charged
// here, before they cross; a read's are charged by spend with the bytes
// it actually read.
func (c *conn) step(n int, write bool) (allowed int, delay time.Duration, cut bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if c.plan.Delay > 0 {
		every := int64(c.plan.DelayEvery)
		if every <= 1 || c.ops%every == 0 {
			delay = c.plan.Delay
		}
	}
	if c.cut {
		return 0, delay, true
	}
	allowed = n
	if c.plan.CutAfter > 0 {
		allowed = int(min(int64(n), c.budget))
		if write {
			cut = c.charge(allowed)
		}
	}
	return allowed, delay, cut
}

// spend charges got bytes a read returned and reports how many of them
// the reader may keep and whether they spent the budget. A concurrent
// write may have spent part of the budget meanwhile: bytes read past it
// are dropped, as a cut drops them.
func (c *conn) spend(got int) (kept int, cut bool) {
	if c.plan.CutAfter <= 0 || got == 0 {
		return got, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cut {
		return 0, true
	}
	kept = int(min(int64(got), c.budget))
	return kept, c.charge(kept)
}

// charge takes n bytes off the budget and reports whether that spent
// it, which is the cut. The caller holds mu.
func (c *conn) charge(n int) bool {
	c.budget -= int64(n)
	c.cut = c.budget <= 0
	return c.cut
}

// shortRead picks this Read's cap under MaxRead.
func (c *conn) shortRead(n int) int {
	if c.plan.MaxRead <= 0 || n <= 1 {
		return n
	}
	c.mu.Lock()
	k := 1 + c.rng.Intn(c.plan.MaxRead)
	c.mu.Unlock()
	if k < n {
		return k
	}
	return n
}

func (c *conn) Read(p []byte) (int, error) {
	n := c.shortRead(len(p))
	allowed, delay, cut := c.step(n, false)
	if delay > 0 {
		time.Sleep(delay)
	}
	if allowed > 0 {
		got, err := c.Conn.Read(p[:allowed])
		got, cut = c.spend(got)
		if cut && !c.plan.Wedge {
			// The remaining bytes of whatever frame this was are gone.
			c.Conn.Close()
		}
		if cut && got == 0 && err == nil {
			err = fmt.Errorf("read: %w", ErrCut)
		}
		return got, err
	}
	if !cut {
		return 0, nil
	}
	if c.plan.Wedge {
		c.dlMu.Lock()
		dl := c.readDeadline
		c.dlMu.Unlock()
		return 0, c.wedge(dl)
	}
	c.Conn.Close()
	return 0, fmt.Errorf("read: %w", ErrCut)
}

func (c *conn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		chunk := len(p) - written
		if c.plan.MaxWrite > 0 && chunk > c.plan.MaxWrite {
			chunk = c.plan.MaxWrite
		}
		allowed, delay, cut := c.step(chunk, true)
		if delay > 0 {
			time.Sleep(delay)
		}
		if allowed > 0 {
			n, err := c.Conn.Write(p[written : written+allowed])
			written += n
			if err != nil {
				return written, err
			}
		}
		if cut && written < len(p) {
			if c.plan.Wedge {
				c.dlMu.Lock()
				dl := c.writeDeadline
				c.dlMu.Unlock()
				return written, c.wedge(dl)
			}
			c.Conn.Close()
			return written, fmt.Errorf("write: %w", ErrCut)
		}
	}
	return written, nil
}

// wedge blocks like a dead peer: until Close, or until the deadline
// passes (returning the same timeout shape the kernel would).
func (c *conn) wedge(deadline time.Time) error {
	var timer <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return timeoutError{}
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-c.unwedge:
		return net.ErrClosed
	case <-timer:
		return timeoutError{}
	}
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.unwedge) })
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.dlMu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.writeDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}
