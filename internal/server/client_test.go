package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/faultnet"
)

// within bounds a blocking call with a watchdog: client hardening must
// produce typed errors, never hangs, so a stuck call fails the test
// immediately instead of timing the whole run out.
func within(t *testing.T, limit time.Duration, what string, fn func() error) error {
	t.Helper()
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(limit):
		t.Fatalf("%s still blocked after %v", what, limit)
		return nil
	}
}

// fakeBinaryServer accepts connections and lets a handler script the
// server side of the protocol frame by frame.
func fakeBinaryServer(t *testing.T, handle func(c net.Conn, br *bufio.Reader)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go handle(c, bufio.NewReader(c))
		}
	}()
	return l.Addr().String()
}

// TestClientCloseFailsPendingAndFuture: Close must fail the calls in
// flight and every later one with ErrClientClosed, and closing twice is
// harmless.
func TestClientCloseFailsPendingAndFuture(t *testing.T) {
	addr := fakeBinaryServer(t, func(c net.Conn, br *bufio.Reader) {
		io.Copy(io.Discard, c) // swallow queries, never reply
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	pending := make(chan error, 1)
	go func() {
		_, err := c.Do([]Query{{Kind: KindValue}})
		pending <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach its wait
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-pending:
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("pending call failed with %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call still blocked after Close")
	}
	if _, err := c.Do([]Query{{Kind: KindValue}}); !errors.Is(err, ErrClientClosed) {
		t.Errorf("call after Close = %v, want ErrClientClosed", err)
	}
	if _, err := c.Value(awari.Board{1}); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Value after Close = %v, want ErrClientClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestClientCountsUnknownReplies: a reply with an id nobody waits for —
// here a stale answer landing after its call's deadline — must be
// counted, not silently dropped.
func TestClientCountsUnknownReplies(t *testing.T) {
	release := make(chan struct{})
	addr := fakeBinaryServer(t, func(c net.Conn, br *bufio.Reader) {
		defer c.Close()
		_, body, err := readFrame(br)
		if err != nil {
			return
		}
		id, _, err := decodeQueries(body)
		if err != nil {
			return
		}
		<-release // answer only after the client gave up
		c.Write(encodeAnswers(id, []Answer{{Pit: -1}}))
		// And one the client never asked for.
		c.Write(encodeAnswers(id+1000, []Answer{{Pit: -1}}))
	})
	c, err := DialConfig(addr, ClientConfig{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = within(t, 10*time.Second, "deadlined call", func() error {
		_, err := c.Do([]Query{{Kind: KindValue}})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("call against a silent server = %v, want a timeout", err)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().UnknownReplies < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("UnknownReplies = %d, want 2 (late reply + invented id)", c.Stats().UnknownReplies)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientRetriesOverload: overload replies are retried with backoff
// when configured, returned as ErrOverloaded when not.
func TestClientRetriesOverload(t *testing.T) {
	var mu sync.Mutex
	sheds := 2
	answered := 0
	addr := fakeBinaryServer(t, func(c net.Conn, br *bufio.Reader) {
		defer c.Close()
		for {
			_, body, err := readFrame(br)
			if err != nil {
				return
			}
			id, qs, err := decodeQueries(body)
			if err != nil {
				return
			}
			mu.Lock()
			if sheds > 0 {
				sheds--
				mu.Unlock()
				c.Write(encodeOverload(id))
				continue
			}
			answered++
			mu.Unlock()
			c.Write(encodeAnswers(id, make([]Answer, len(qs))))
		}
	})

	c, err := DialConfig(addr, ClientConfig{Retries: 4, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = within(t, 10*time.Second, "retried call", func() error {
		_, err := c.Do([]Query{{Kind: KindValue}})
		return err
	})
	if err != nil {
		t.Fatalf("call with retries against a shedding server: %v", err)
	}
	mu.Lock()
	if sheds != 0 || answered != 1 {
		t.Errorf("server shed %d too few and answered %d", sheds, answered)
	}
	sheds = 1 // next call gets shed once
	mu.Unlock()

	plain, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.Do([]Query{{Kind: KindValue}}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("no-retry client got %v, want ErrOverloaded", err)
	}
}

// TestClientGiveUpNamesAttempts: when retries run out, the error says
// how hard the client tried and keeps the cause inspectable.
func TestClientGiveUpNamesAttempts(t *testing.T) {
	addr := fakeBinaryServer(t, func(c net.Conn, br *bufio.Reader) {
		defer c.Close()
		for {
			_, body, err := readFrame(br)
			if err != nil {
				return
			}
			id, _, err := decodeQueries(body)
			if err != nil {
				return
			}
			c.Write(encodeOverload(id))
		}
	})
	c, err := DialConfig(addr, ClientConfig{Retries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = within(t, 10*time.Second, "doomed call", func() error {
		_, err := c.Do([]Query{{Kind: KindValue}})
		return err
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cause lost: %v", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error %q does not name the 3 attempts", err)
	}
}

// forwarder is a killable TCP proxy between client and server, so tests
// can sever an established connection without touching either end.
type forwarder struct {
	l       net.Listener
	backend string

	mu    sync.Mutex
	conns []net.Conn
	held  chan struct{} // non-nil while client→backend bytes are held back

	stalled chan struct{} // one send per chunk held back
}

func newForwarder(t *testing.T, backend string) *forwarder {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &forwarder{l: l, backend: backend, stalled: make(chan struct{}, 16)}
	go f.loop()
	t.Cleanup(func() { l.Close(); f.kill() })
	return f
}

func (f *forwarder) loop() {
	for {
		c, err := f.l.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", f.backend)
		if err != nil {
			c.Close()
			continue
		}
		f.mu.Lock()
		f.conns = append(f.conns, c, b)
		f.mu.Unlock()
		go func() { io.Copy(b, heldReader{c, f}); b.Close() }()
		go func() { io.Copy(c, b); c.Close() }()
	}
}

// kill severs every connection currently flowing through the proxy.
func (f *forwarder) kill() {
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.conns = nil
	f.mu.Unlock()
}

// hold makes the proxy sit on everything clients send from now on, so a
// call stays pending; the returned func lets traffic flow again.
func (f *forwarder) hold() (release func()) {
	held := make(chan struct{})
	f.mu.Lock()
	f.held = held
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		f.held = nil
		f.mu.Unlock()
		close(held)
	}
}

// heldReader is the client side of a proxied connection: while the proxy
// is held, each chunk read is reported on stalled and waits for release.
type heldReader struct {
	net.Conn
	f *forwarder
}

func (r heldReader) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.f.mu.Lock()
	held := r.f.held
	r.f.mu.Unlock()
	if n > 0 && held != nil {
		r.f.stalled <- struct{}{}
		<-held
	}
	return n, err
}

// TestClientReconnects severs an established connection mid-session; a
// client with retries must redial and answer the next call correctly.
func TestClientReconnects(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)
	s := startServer(t, dir, Config{})
	f := newForwarder(t, s.Addr())

	c, err := DialConfig(f.l.Addr().String(), ClientConfig{Retries: 5, Backoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	b := awari.Board{0, 0, 0, 0, 2, 1, 1, 0, 0, 0, 0, 1}
	if _, err := c.Value(b); err != nil {
		t.Fatalf("query before the kill: %v", err)
	}
	f.kill()
	err = within(t, 10*time.Second, "post-kill call", func() error {
		got, err := c.Value(b)
		if err == nil && got != l.Value(b) {
			t.Errorf("post-reconnect value %d, ladder says %d", got, l.Value(b))
		}
		return err
	})
	if err != nil {
		t.Fatalf("query after the kill: %v", err)
	}
	if r := c.Stats().Reconnects; r < 1 {
		t.Errorf("Reconnects = %d, want >= 1", r)
	}

	// Without retries the same kill is a hard, typed failure — and the
	// client stays failed rather than hanging. The proxy sits on the
	// request so the call is pending when the sever lands (a client whose
	// reader saw the sever first would simply redial on its next call),
	// then lets traffic through again: a call that redialed would succeed.
	plain, err := Dial(f.l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.Value(b); err != nil {
		t.Fatalf("plain client first query: %v", err)
	}
	release := f.hold()
	err = within(t, 10*time.Second, "no-retry post-kill call", func() error {
		go func() {
			<-f.stalled
			f.kill()
			release()
		}()
		_, err := plain.Value(b)
		return err
	})
	if err == nil {
		t.Error("no-retry client survived a severed connection")
	}
}

// TestServerSurvivesFaultyWire serves real queries through a wire that
// tears every frame into tiny reads and writes; answers must still be
// bit-correct. Exercises the server's accept-side WrapConn hook.
func TestServerSurvivesFaultyWire(t *testing.T) {
	dir := t.TempDir()
	l := buildLadder(t)
	saveRungs(t, l, dir)
	s := startServer(t, dir, Config{
		WrapConn: faultnet.Plan{Seed: 11, MaxRead: 3, MaxWrite: 5}.Wrapper(),
	})
	c := dial(t, s)
	for n := 1; n <= testStones; n++ {
		idx := awari.Size(n) / 2
		b := boardOf(n, idx)
		got, err := c.Value(b)
		if err != nil {
			t.Fatalf("rung %d over a faulty wire: %v", n, err)
		}
		if want := l.Lookup(n, idx); got != want {
			t.Errorf("rung %d idx %d: served %d over a faulty wire, want %d", n, idx, got, want)
		}
	}
}
