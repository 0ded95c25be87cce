package remote

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/chess"
	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/nim"
	"retrograde/internal/ra"
	"retrograde/internal/ttt"
)

// phaseLoops is the loops phase as the codec tests write it into go frames.
const phaseLoops = ra.PhaseLoops

// TestTCPMatchesSequential runs the TCP engine over real loopback sockets
// and requires bit-identical databases with the sequential engine.
func TestTCPMatchesSequential(t *testing.T) {
	games := []game.Game{
		nim.MustNew(3, 4),
		ttt.New(),
		chess.MustNew(4),
	}
	for _, g := range games {
		want := ra.SolveSequential(g)
		for _, cfg := range []Engine{
			{Workers: 1},
			{Workers: 2, Batch: 1},
			{Workers: 3, Batch: 64},
			{Workers: 5, Group: 16},
		} {
			got, err := cfg.Solve(g)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name(), cfg.Name(), err)
			}
			if got.Waves != want.Waves {
				t.Errorf("%s %s: waves %d, want %d", g.Name(), cfg.Name(), got.Waves, want.Waves)
			}
			if got.Kernel != want.Kernel {
				t.Errorf("%s %s: result names kernel %q, want %q", g.Name(), cfg.Name(), got.Kernel, want.Kernel)
			}
			for i := range want.Values {
				if got.Values[i] != want.Values[i] {
					t.Fatalf("%s %s: values differ at %d", g.Name(), cfg.Name(), i)
				}
			}
			for i := range want.Loop {
				if got.Loop[i] != want.Loop[i] {
					t.Fatalf("%s %s: loop bitsets differ", g.Name(), cfg.Name())
				}
			}
		}
	}
}

// TestTCPAwariLadder builds awari over TCP, the full paper workload with
// captures, the feeding rule and loop resolution, on the SWAR kernel.
func TestTCPAwariLadder(t *testing.T) {
	cfg := ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}
	want, err := ladder.Build(cfg, 6, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ladder.Build(cfg, 6, Engine{Workers: 4, Batch: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 6; n++ {
		if k := got.Result(n).Kernel; k != "swar" {
			t.Errorf("rung %d ran the %s kernel, want swar", n, k)
		}
		a, b := want.Result(n).Values, got.Result(n).Values
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rung %d differs at %d", n, i)
			}
		}
	}
}

// TestTCPBatchingReducesFrames checks combining works on the real wire:
// bigger batches mean fewer data frames for the same updates.
func TestTCPBatchingReducesFrames(t *testing.T) {
	g := ttt.New()
	_, naive, err := (Engine{Workers: 4, Batch: 1}).SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	_, combined, err := (Engine{Workers: 4, Batch: 256}).SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	if combined.DataFrames*4 > naive.DataFrames {
		t.Errorf("batching cut data frames only from %d to %d", naive.DataFrames, combined.DataFrames)
	}
	if combined.Bytes >= naive.Bytes {
		t.Errorf("batching did not cut bytes: %d vs %d", combined.Bytes, naive.Bytes)
	}
}

// TestTCPDataFramesPinned pins the update-carrying frames of one TCP
// solve. Per destination, a wave's flushes are the ceiling of its updates
// over the batch size whatever the send order, so the count is exact;
// total frames are not pinned, because heartbeats depend on timing.
func TestTCPDataFramesPinned(t *testing.T) {
	_, rep, err := (Engine{Workers: 3, Batch: 8}).SolveDetailed(ttt.New())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataFrames != 235 {
		t.Errorf("data frames %d, want %d", rep.DataFrames, 235)
	}
}

// TestTCPSingleWorkerNoFrames: a 1-node run never touches the network.
func TestTCPSingleWorkerNoFrames(t *testing.T) {
	g := nim.MustNew(2, 5)
	_, rep, err := (Engine{Workers: 1}).SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 0 {
		t.Errorf("1-node run sent %d frames", rep.Frames)
	}
}

// TestTCPRepeatedRuns exercises bootstrap/teardown repeatedly to catch
// leaked goroutines or sockets (failures show up as hangs or dial errors).
func TestTCPRepeatedRuns(t *testing.T) {
	g := nim.MustNew(2, 4)
	want := ra.SolveSequential(g)
	for i := 0; i < 10; i++ {
		got, err := (Engine{Workers: 3, Batch: 8}).Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		for idx := range want.Values {
			if got.Values[idx] != want.Values[idx] {
				t.Fatalf("run %d differs at %d", i, idx)
			}
		}
	}
}

func TestFrameCodecRoundTrip(t *testing.T) {
	frames := [][]byte{
		encodeBatch(7, []ra.Update{{Target: 42, Value: 3}, {Target: 1 << 40, Value: 65534}}),
		encodeBatch(0, nil),
		encodeCtl(frameEOW, 9, 0, 0),
		encodeCtl(frameDone, 3, 0, 123456789),
		encodeCtl(frameGo, 5, phaseLoops, 0),
	}
	var stream []byte
	for _, f := range frames {
		stream = append(stream, f...)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	ev, err := readFrame(r)
	if err != nil || ev.kind != frameBatch || ev.wave != 7 || len(ev.updates) != 2 {
		t.Fatalf("batch frame: %+v, %v", ev, err)
	}
	if ev.updates[1].Target != 1<<40 || ev.updates[1].Value != 65534 {
		t.Fatalf("batch payload corrupted: %+v", ev.updates)
	}
	if ev, err = readFrame(r); err != nil || ev.kind != frameBatch || len(ev.updates) != 0 {
		t.Fatalf("empty batch frame: %+v, %v", ev, err)
	}
	if ev, err = readFrame(r); err != nil || ev.kind != frameEOW || ev.wave != 9 {
		t.Fatalf("eow frame: %+v, %v", ev, err)
	}
	if ev, err = readFrame(r); err != nil || ev.kind != frameDone || ev.work != 123456789 {
		t.Fatalf("done frame: %+v, %v", ev, err)
	}
	if ev, err = readFrame(r); err != nil || ev.kind != frameGo || ev.phase != phaseLoops || ev.wave != 5 {
		t.Fatalf("go frame: %+v, %v", ev, err)
	}
	if _, err = readFrame(r); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		{0, 0, 0, 0},                                // zero-size frame
		{255, 255, 255, 255},                        // absurd size
		{6, 0, 0, 0, 99, 1, 0, 0, 0, 0},             // unknown frame type
		{5, 0, 0, 0, byte(ra.MsgToken), 1, 0, 0, 0}, // async token: the mesh runs no async mode
		append([]byte{14, 0, 0, 0, frameBatch, 1, 0, 0, 0}, []byte{9, 0, 0, 0, 1}...), // batch count/size mismatch
		{6, 0, 0, 0, frameDone, 1, 0, 0, 0, 0},                                        // done frame too short
		{5, 0, 0, 0, frameBatch, 1, 0, 0, 0},                                          // batch frame without a count
		overflowBatchFrame,                                                            // count*10 wraps 32 bits to the body size
	}
	for i, data := range bad {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(data))); err == nil || err == io.EOF {
			t.Errorf("case %d: garbage accepted (err=%v)", i, err)
		}
	}
}

// TestAcceptPeersRejectsBadHello dials hellos that name no lower-numbered
// node, or one already connected, at node 2's accept side: each must fail
// with an error naming the id and close the refused connection, leaving
// only well-introduced peers in conns for the bootstrap to close.
func TestAcceptPeersRejectsBadHello(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hellos []byte
	}{
		{"beyond the mesh", []byte{200}},
		{"own id", []byte{2}},
		{"repeated id", []byte{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			conns := make([]net.Conn, 3)
			accepted := make(chan error, 1)
			go func() { accepted <- acceptPeers(l, 2, time.Second, conns) }()
			var dialed []net.Conn
			for _, h := range tc.hellos {
				c, err := net.DialTimeout("tcp", l.Addr().String(), time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.SetDeadline(time.Now().Add(2 * time.Second))
				if _, err := c.Write([]byte{h}); err != nil {
					t.Fatal(err)
				}
				dialed = append(dialed, c)
			}
			err = <-accepted
			bad := fmt.Sprintf("id %d", tc.hellos[len(tc.hellos)-1])
			if err == nil || !strings.Contains(err.Error(), bad) {
				t.Fatalf("acceptPeers = %v, want an error naming %s", err, bad)
			}
			var b [1]byte
			if _, err := dialed[len(dialed)-1].Read(b[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("refused conn still open (read err %v)", err)
			}
			for id, c := range conns {
				if c != nil {
					c.Close()
					if id >= 2 || len(tc.hellos) == 1 {
						t.Errorf("conns[%d] holds a connection no good hello introduced", id)
					}
				}
			}
		})
	}
}

func TestWriterDrainsOnClose(t *testing.T) {
	a, b := net.Pipe()
	w := newWriter(a, time.Second, nil)
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 10)
		io.ReadFull(b, buf)
		done <- buf
	}()
	w.enqueue([]byte("0123456789"))
	w.close()
	got := <-done
	if string(got) != "0123456789" {
		t.Errorf("read %q", got)
	}
	b.Close()
}
