package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"retrograde/internal/faultnet"
	"retrograde/internal/game"
	"retrograde/internal/ra"
	"retrograde/internal/ttt"
)

// solveWatchdog runs a solve under a wall-clock bound: the engine must
// return — success or typed failure — well within it. A hang here is the
// exact bug the deadlines exist to prevent, so the watchdog fails the
// test immediately instead of letting `go test` time out. (On failure
// the solve goroutine leaks; the process is about to die anyway.)
func solveWatchdog(t *testing.T, e Engine, g game.Game, limit time.Duration) (*ra.Result, error) {
	t.Helper()
	type outcome struct {
		r   *ra.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, err := e.Solve(g)
		ch <- outcome{r, err}
	}()
	select {
	case o := <-ch:
		return o.r, o.err
	case <-time.After(limit):
		t.Fatalf("solve still running after %v — failure detection is hanging", limit)
		return nil, nil
	}
}

// wrapPair injects a fault plan into one mesh endpoint: local's view of
// its connection to peer. All other connections pass through clean.
func wrapPair(local, peer int, plan faultnet.Plan) func(int, int, net.Conn) net.Conn {
	return func(l, p int, c net.Conn) net.Conn {
		if l == local && p == peer {
			return plan.Wrap(c)
		}
		return c
	}
}

// TestWedgedPeerYieldsNodeFailedError wedges one mesh connection — open
// but silent, the failure mode with no EOF to notice — and requires a
// typed NodeFailedError within a few timeouts. Without read deadlines
// and heartbeats this solve hangs forever; the watchdog would catch it.
func TestWedgedPeerYieldsNodeFailedError(t *testing.T) {
	e := Engine{
		Workers:  3,
		Batch:    16,
		Timeout:  400 * time.Millisecond,
		WrapConn: wrapPair(1, 2, faultnet.Plan{CutAfter: 1, Wedge: true}),
	}
	start := time.Now()
	_, err := solveWatchdog(t, e, ttt.New(), 10*time.Second)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("solve with a wedged connection succeeded")
	}
	var nf *NodeFailedError
	if !errors.As(err, &nf) {
		t.Fatalf("error is %T (%v), want *NodeFailedError", err, err)
	}
	if nf.Node != 1 && nf.Node != 2 {
		t.Errorf("blamed node %d; the wedge is between 1 and 2", nf.Node)
	}
	switch nf.Phase {
	case "init", "expand", "loops", "finish":
	default:
		t.Errorf("unknown phase %q in %v", nf.Phase, nf)
	}
	// Detection is deadline-bound: ~Timeout after the wedge engages, with
	// generous slack for the cascade and a loaded test machine.
	if elapsed > 5*time.Second {
		t.Errorf("detection took %v with a %v timeout", elapsed, e.Timeout)
	}
}

// TestCrashedPeerYieldsNodeFailedError cuts a connection mid-frame, the
// way a killed process's sockets land, and requires a typed error — the
// EOF arrives without a bye frame, so it must read as a crash.
func TestCrashedPeerYieldsNodeFailedError(t *testing.T) {
	e := Engine{
		Workers:  3,
		Batch:    16,
		Timeout:  2 * time.Second,
		WrapConn: wrapPair(0, 1, faultnet.Plan{CutAfter: 2048}),
	}
	_, err := solveWatchdog(t, e, ttt.New(), 10*time.Second)
	if err == nil {
		t.Fatal("solve with a cut connection succeeded")
	}
	var nf *NodeFailedError
	if !errors.As(err, &nf) {
		t.Fatalf("error is %T (%v), want *NodeFailedError", err, err)
	}
	if nf.Node != 0 && nf.Node != 1 {
		t.Errorf("blamed node %d; the cut is between 0 and 1", nf.Node)
	}
}

// TestBenignFaultsBitIdentical runs solves over a deliberately ugly but
// live wire — short reads and writes tearing frames apart, and a laggy
// connection delaying batches and end-of-wave sentinels — and requires
// the database to stay bit-identical with the sequential engine.
func TestBenignFaultsBitIdentical(t *testing.T) {
	g := ttt.New()
	want := ra.SolveSequential(g)
	cases := []struct {
		name string
		wrap func(int, int, net.Conn) net.Conn
	}{
		{"short-io", func(l, p int, c net.Conn) net.Conn {
			return faultnet.Plan{Seed: int64(l*8 + p), MaxRead: 5, MaxWrite: 7}.Wrap(c)
		}},
		{"laggy-pair", wrapPair(0, 1, faultnet.Plan{Delay: 2 * time.Millisecond})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := solveWatchdog(t, Engine{Workers: 3, Batch: 32, WrapConn: tc.wrap}, g, 60*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got.Waves != want.Waves {
				t.Errorf("waves = %d, want %d", got.Waves, want.Waves)
			}
			for i := range want.Values {
				if got.Values[i] != want.Values[i] {
					t.Fatalf("values differ at %d", i)
				}
			}
			for i := range want.Loop {
				if got.Loop[i] != want.Loop[i] {
					t.Fatal("loop bitsets differ")
				}
			}
		})
	}
}

// TestKilledSolveResumesBitIdentical kills a checkpointing solve partway
// through with a mid-frame connection cut, then re-runs it in the same
// directory: the second run must resume from the newest wave every node
// checkpointed and produce the same database as the sequential engine.
func TestKilledSolveResumesBitIdentical(t *testing.T) {
	g := ttt.New()
	want := ra.SolveSequential(g)
	dir := t.TempDir()
	base := Engine{Workers: 3, Batch: 32, CheckpointDir: dir, CheckpointEvery: 1}

	// Size the cut from a clean run's traffic so it lands mid-solve:
	// one endpoint carries about a third of the total bytes (both
	// directions of one of the three pair connections); cut most of the
	// way through so several waves have been checkpointed.
	clean := Engine{Workers: base.Workers, Batch: base.Batch}
	_, rep, err := clean.SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(rep.Bytes) / 4

	faulty := base
	faulty.Timeout = 2 * time.Second
	faulty.WrapConn = wrapPair(1, 2, faultnet.Plan{CutAfter: cut})
	if _, err := solveWatchdog(t, faulty, g, 20*time.Second); err == nil {
		t.Fatalf("solve survived a connection cut after %d bytes", cut)
	}

	st, err := loadResume(dir, g, base.Workers)
	if err != nil {
		t.Fatalf("checkpoints after the crash are unusable: %v", err)
	}
	if st == nil {
		t.Fatalf("crash left no common checkpoint (cut=%d landed too early)", cut)
	}
	t.Logf("resuming from wave %d", st.wave)

	// A mesh of a different size must refuse these checkpoints rather
	// than silently recompute or corrupt them.
	mismatched := Engine{Workers: base.Workers + 1, CheckpointDir: dir}
	if _, err := mismatched.Solve(g); err == nil {
		t.Error("resume with a different node count was accepted")
	}

	got, err := solveWatchdog(t, base, g, 20*time.Second)
	if err != nil {
		t.Fatalf("resumed solve failed: %v", err)
	}
	if got.Waves != want.Waves {
		t.Errorf("resumed waves = %d, want %d", got.Waves, want.Waves)
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("resumed database differs at %d", i)
		}
	}
	for i := range want.Loop {
		if got.Loop[i] != want.Loop[i] {
			t.Fatal("resumed loop bitsets differ")
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(left) != 0 {
		t.Errorf("successful solve left checkpoints behind: %v", left)
	}
}

// TestCheckpointingFreshRunUnchanged: with a checkpoint directory but no
// faults, the solve completes normally, stays bit-identical, and cleans
// up after itself.
func TestCheckpointingFreshRunUnchanged(t *testing.T) {
	g := ttt.New()
	want := ra.SolveSequential(g)
	dir := t.TempDir()
	got, err := solveWatchdog(t, Engine{Workers: 3, CheckpointDir: dir, CheckpointEvery: 2}, g, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("values differ at %d", i)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(left) != 0 {
		t.Errorf("successful solve left checkpoints behind: %v", left)
	}
}

// TestParentVersionCheckpointsRefused: a checkpoint directory written by
// an older format must fail the solve with an error naming the directory
// and the version — never a silent fresh start, never a reinterpretation
// — and must be left in place. Version 1 had scalar-only shard bodies;
// version 2 bodies kept a loop-set list and stale counters on positions
// finalized by cutoff, which version 3 would read as loop flags.
func TestParentVersionCheckpointsRefused(t *testing.T) {
	g := ttt.New()
	files := map[uint32]func(t *testing.T, e Engine, i int) []byte{
		// The version 1 mesh header, then the 40-byte header that began
		// its shard body.
		1: func(_ *testing.T, e Engine, _ int) []byte {
			v1 := append([]byte("RMCP"), 1, 0, 0, 0, byte(e.Workers), 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0)
			v1 = append(v1, "RACP\x01\x00\x00\x00"...)
			return append(v1, make([]byte, 32)...)
		},
		// The version 2 mesh header, then a snapshot body as a run's
		// first checkpoint left it: kernel, shard size, zero-filled
		// state streams, three empty lists (queue, next, loop set), stats
		// and checksum.
		2: func(t *testing.T, e Engine, i int) []byte {
			var buf bytes.Buffer
			head := meshHeader{meshCkptMagic, 2, uint32(e.Workers), uint32(i), e.group(), 4, 3}
			if err := binary.Write(&buf, binary.LittleEndian, head); err != nil {
				t.Fatal(err)
			}
			n := ra.Cyclic(g.Size(), e.Workers).ShardSize(i)
			body := binary.LittleEndian.AppendUint64([]byte{byte(ra.KernelScalar)}, n)
			body = append(body, make([]byte, 4*n+3*8)...)
			body = binary.LittleEndian.AppendUint64(body, n)
			body = append(body, make([]byte, 8*8)...)
			body = binary.LittleEndian.AppendUint64(body, crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
			return append(buf.Bytes(), body...)
		},
	}
	for _, version := range []uint32{1, 2} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := t.TempDir()
			e := Engine{Workers: 2, CheckpointDir: dir}
			for i := 0; i < e.Workers; i++ {
				if err := os.WriteFile(filepath.Join(dir, ckptName(4, i)), files[version](t, e, i), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err := solveWatchdog(t, e, g, 20*time.Second)
			if err == nil {
				t.Fatalf("solve over version %d checkpoints succeeded", version)
			}
			if msg := err.Error(); !strings.Contains(msg, dir) || !strings.Contains(msg, fmt.Sprintf("version %d", version)) {
				t.Errorf("error %q does not name the directory and the unsupported version", msg)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(left) != e.Workers {
				t.Errorf("refused solve disturbed the old checkpoints: %v", left)
			}
		})
	}
}
