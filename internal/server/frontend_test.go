package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"retrograde/internal/game"
)

// fakeOwner stands in for raserve and rabroker behind a Frontend: its
// handler echoes each probe's index as the value, blocks on the shard
// named "block" until released and sheds the shard named "shed".
type fakeOwner struct {
	entered chan struct{} // one send per batch parked on "block"
	release chan struct{} // closed to let parked batches finish
}

func (o *fakeOwner) handle(qs []Query) ([]Answer, error) {
	as := make([]Answer, len(qs))
	for i, q := range qs {
		switch q.Shard {
		case "shed":
			return nil, ErrOverloaded
		case "block":
			o.entered <- struct{}{}
			<-o.release
		}
		as[i] = Answer{Value: game.Value(q.Index), Pit: -1}
	}
	return as, nil
}

// startFront serves a fakeOwner through a Frontend; the mux knows only
// /healthz.
func startFront(t *testing.T, wrap func(net.Conn) net.Conn) (*Frontend, *fakeOwner) {
	t.Helper()
	f, err := Listen("127.0.0.1:0", wrap)
	if err != nil {
		t.Fatal(err)
	}
	o := &fakeOwner{entered: make(chan struct{}, 16), release: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	f.Serve(o.handle, mux)
	t.Cleanup(func() { f.Close() })
	return f, o
}

func dialFront(t *testing.T, f *Frontend) *Client {
	t.Helper()
	c, err := DialConfig(f.Addr(), ClientConfig{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func probe(shard string, idx uint64) []Query {
	return []Query{{Kind: KindProbe, Shard: shard, Index: idx}}
}

// awaitDraining polls the front's batch entry until it refuses work and
// returns how many polls were still admitted (and counted) before that.
func awaitDraining(t *testing.T, f *Frontend) (admitted uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); admitted++ {
		if _, err := f.Do(probe("quick", 0)); err == ErrOverloaded {
			return admitted
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("front never started draining")
	return 0
}

// TestFrontendDrain: Close answers and writes what was admitted, sheds
// what comes after with an overload frame, keeps answering pings the
// whole time, and leaves nothing listening.
func TestFrontendDrain(t *testing.T) {
	f, o := startFront(t, nil)
	c := dialFront(t, f)

	type result struct {
		as  []Answer
		err error
	}
	admitted := make(chan result, 1)
	go func() {
		as, err := c.Do(probe("block", 7))
		admitted <- result{as, err}
	}()
	<-o.entered
	if err := c.Ping(0); err != nil {
		t.Errorf("ping while the handler is blocked: %v", err)
	}

	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	polls := awaitDraining(t, f)
	if _, err := c.Do(probe("quick", 1)); !errors.Is(err, ErrOverloaded) {
		t.Errorf("batch sent while draining = %v, want ErrOverloaded", err)
	}
	if err := c.Ping(0); err != nil {
		t.Errorf("ping while draining: %v", err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with an admitted batch unanswered", err)
	default:
	}

	close(o.release)
	if r := <-admitted; r.err != nil || len(r.as) != 1 || r.as[0].Value != 7 {
		t.Errorf("admitted batch = %+v, %v; want value 7", r.as, r.err)
	}
	if err := <-closed; err != nil {
		t.Errorf("Close = %v", err)
	}
	if _, err := Dial(f.Addr()); err == nil {
		t.Error("dialing a closed front succeeded")
	}
	if err := f.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if m := f.Metrics(); m.Batches != 1+polls || m.Pings != 2 || m.Overloads != 2 {
		t.Errorf("metrics %+v; want %d batches, 2 pings and both refusals counted", m, 1+polls)
	}
}

// TestFrontendHandlerOverload: a handler returning ErrOverloaded sheds
// the batch with an overload frame and is counted, nothing else is.
func TestFrontendHandlerOverload(t *testing.T) {
	f, _ := startFront(t, nil)
	c := dialFront(t, f)
	if _, err := c.Do(probe("shed", 0)); !errors.Is(err, ErrOverloaded) {
		t.Errorf("shed batch = %v, want ErrOverloaded", err)
	}
	if as, err := c.Do(probe("quick", 3)); err != nil || as[0].Value != 3 {
		t.Errorf("batch after a shed one = %+v, %v", as, err)
	}
	if m := f.Metrics(); m.Overloads != 1 || m.Batches != 1 {
		t.Errorf("overloads = %d, batches = %d; want 1 and 1", m.Overloads, m.Batches)
	}
}

// TestFrontendLateConnSelfCloses pins the connsTorn rule: a connection
// accepted before Close but registered only after Close has swept the
// connection set must be closed by its own reader, or Close would wait
// on it forever. The wrap hook holds the accept loop between Accept and
// registration to force that order.
func TestFrontendLateConnSelfCloses(t *testing.T) {
	accepted := make(chan struct{})
	resume := make(chan struct{})
	f, _ := startFront(t, func(c net.Conn) net.Conn {
		close(accepted)
		<-resume
		return c
	})
	conn, err := net.Dial("tcp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-accepted

	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	for swept := false; !swept; time.Sleep(time.Millisecond) {
		f.connMu.Lock()
		swept = f.connsTorn
		f.connMu.Unlock()
	}
	close(resume)

	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a connection registered after the sweep")
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read on the late connection = %v, want EOF (closed by the front)", err)
	}
}

// TestFrontendUnknownFrameClosesConn: a first frame of no known type is
// a protocol error; the connection is closed, not answered.
func TestFrontendUnknownFrameClosesConn(t *testing.T) {
	f, _ := startFront(t, nil)
	conn, err := net.Dial("tcp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(encodeBare(99, 1)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := readFrame(bufio.NewReader(conn)); err != io.EOF {
		t.Errorf("reply to an unknown frame type = %v, want EOF", err)
	}
}

// TestFrontendHTTPSamePort: an HTTP request on the binary port reaches
// the owner's mux.
func TestFrontendHTTPSamePort(t *testing.T) {
	f, _ := startFront(t, nil)
	c := dialFront(t, f)
	if err := c.Ping(0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + f.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("GET /healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
}
