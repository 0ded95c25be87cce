package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"testing"
	"time"
)

// pipe returns a wrapped client end and the raw server end of a real
// loopback TCP connection (net.Pipe has no deadlines worth testing
// against).
func pipe(t *testing.T, p Plan) (wrapped, peer net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer = <-done
	if peer == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { raw.Close(); peer.Close() })
	return p.Wrap(raw), peer
}

func TestZeroPlanIsTransparent(t *testing.T) {
	c, peer := pipe(t, Plan{})
	msg := []byte("retrograde analysis")
	go peer.Write(msg)
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("read %q, want %q", buf, msg)
	}
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(peer, got); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("peer read %q (%v), want %q", got, err, msg)
	}
}

// TestShortReads: every Read returns at most MaxRead bytes, but the
// stream is intact.
func TestShortReads(t *testing.T) {
	c, peer := pipe(t, Plan{Seed: 1, MaxRead: 3})
	msg := bytes.Repeat([]byte("abcdefg"), 40)
	go func() { peer.Write(msg); peer.Close() }()
	var got []byte
	buf := make([]byte, 64)
	for {
		n, err := c.Read(buf)
		if n > 3 {
			t.Fatalf("short-read cap violated: %d bytes", n)
		}
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted: %d bytes vs %d", len(got), len(msg))
	}
}

// TestShortWrites: chunked writes still deliver the whole stream.
func TestShortWrites(t *testing.T) {
	c, peer := pipe(t, Plan{Seed: 1, MaxWrite: 2})
	msg := bytes.Repeat([]byte("0123456789"), 25)
	go func() { c.Write(msg); c.Close() }()
	got, err := io.ReadAll(peer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted: %d bytes vs %d", len(got), len(msg))
	}
}

// TestCutMidStream: the byte budget kills the conn part-way through a
// write, and the error is identifiable as an injected cut.
func TestCutMidStream(t *testing.T) {
	c, peer := pipe(t, Plan{CutAfter: 10})
	go io.Copy(io.Discard, peer)
	n, err := c.Write(bytes.Repeat([]byte("x"), 64))
	if !errors.Is(err, ErrCut) {
		t.Fatalf("write past the budget: n=%d err=%v, want ErrCut", n, err)
	}
	if n != 10 {
		t.Errorf("wrote %d bytes before the cut, want 10", n)
	}
	if _, err := c.Write([]byte("more")); err == nil {
		t.Error("write after the cut succeeded")
	}
}

// TestCutChargesBytesRead: a read is charged the bytes it returned, not
// the buffer it was handed, so a reader with a large buffer (a bufio
// reader's 4 KiB) gets every byte up to the budget and the cut lands at
// exactly CutAfter bytes.
func TestCutChargesBytesRead(t *testing.T) {
	c, peer := pipe(t, Plan{CutAfter: 100})
	buf := make([]byte, 4096)
	var got []byte
	readTo := func(total int) {
		t.Helper()
		for len(got) < total {
			n, err := c.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				t.Fatalf("read after %d bytes: %v", len(got), err)
			}
		}
	}
	for _, chunk := range []int{50, 40, 30} {
		if _, err := peer.Write(bytes.Repeat([]byte{byte(chunk)}, chunk)); err != nil {
			t.Fatal(err)
		}
		readTo(min(len(got)+chunk, 100))
	}
	if len(got) != 100 {
		t.Fatalf("read %d bytes before the cut, want 100", len(got))
	}
	if n, err := c.Read(buf); !errors.Is(err, ErrCut) {
		t.Fatalf("read past the budget: n=%d err=%v, want ErrCut", n, err)
	}
}

// TestWedgeHonorsDeadline: a wedged read blocks, then fails with a
// net.Error timeout once the read deadline passes — the same shape a
// silent peer produces on a real stack.
func TestWedgeHonorsDeadline(t *testing.T) {
	c, peer := pipe(t, Plan{CutAfter: 4, Wedge: true})
	go peer.Write([]byte("abcdefgh"))
	buf := make([]byte, 16)
	if _, err := io.ReadFull(c, buf[:4]); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("wedged read returned %v, want a net.Error timeout", err)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("deadline took %v to fire", since)
	}
}

// TestWedgeUnblocksOnClose: without a deadline, Close is the only way
// out — and it must work.
func TestWedgeUnblocksOnClose(t *testing.T) {
	c, peer := pipe(t, Plan{CutAfter: 1, Wedge: true})
	go peer.Write([]byte("zz"))
	buf := make([]byte, 4)
	if _, err := c.Read(buf[:1]); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(buf)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("read on a closed wedged conn succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedged read survived Close")
	}
}

// TestDeterminism: the same seed yields the same read-size schedule.
func TestDeterminism(t *testing.T) {
	sizes := func(seed int64) []int {
		c, peer := pipe(t, Plan{Seed: seed, MaxRead: 5})
		msg := bytes.Repeat([]byte("determinism!"), 20)
		go func() { peer.Write(msg); peer.Close() }()
		var out []int
		buf := make([]byte, 32)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				out = append(out, n)
			}
			if err != nil {
				return out
			}
		}
	}
	a, b := sizes(42), sizes(42)
	if len(a) != len(b) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d: %d vs %d", i, a[i], b[i])
		}
	}
	if c := sizes(43); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical schedules")
		}
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("seed=7,maxread=3,delay=2ms,every=10,cut=4096,wedge")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 7, MaxRead: 3, Delay: 2 * time.Millisecond, DelayEvery: 10, CutAfter: 4096, Wedge: true}
	if p != want {
		t.Errorf("Parse = %+v, want %+v", p, want)
	}
	if p2, err := Parse(""); err != nil || p2 != (Plan{}) {
		t.Errorf("empty spec = %+v, %v", p2, err)
	}
	for _, bad := range []string{"bogus=1", "wedge", "delay=xyz", "wedge=1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	if got := want.String(); got != "seed=7,maxread=3,delay=2ms,every=10,cut=4096,wedge" {
		t.Errorf("String = %q", got)
	}
	// Parse errors wrap their cause, so callers can classify with
	// errors.Is through the "faultnet: bad <key>" layer.
	if _, err := Parse("maxread=zz"); !errors.Is(err, strconv.ErrSyntax) {
		t.Errorf("Parse(maxread=zz) = %v, want a wrapped strconv.ErrSyntax", err)
	}
}
