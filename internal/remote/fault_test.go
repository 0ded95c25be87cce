package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/faultnet"
	"retrograde/internal/game"
	"retrograde/internal/graphgame"
	"retrograde/internal/ladder"
	"retrograde/internal/nim"
	"retrograde/internal/oocore"
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

// sameDatabase requires got to be the database of want, the sequential
// engine's.
func sameDatabase(t *testing.T, label string, want, got *ra.Result) {
	t.Helper()
	if got.Waves != want.Waves {
		t.Errorf("%s: waves = %d, want %d", label, got.Waves, want.Waves)
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("%s: database differs at %d", label, i)
		}
	}
	for i := range want.Loop {
		if got.Loop[i] != want.Loop[i] {
			t.Fatalf("%s: loop bitsets differ", label)
		}
	}
}

// countingConn counts the bytes read and written on one endpoint, the
// way a faultnet cut budget counts them.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// pairBytes runs e's solve over g to the end from a copy of e's
// checkpoint directory — the state the next run in it starts from — and
// returns the bytes node 1's endpoint of its connection to node 2
// carried.
func pairBytes(t *testing.T, e Engine, g game.Game) int64 {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(e.CheckpointDir)); err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	e.CheckpointDir = dir
	e.WrapConn = func(l, p int, c net.Conn) net.Conn {
		if l == 1 && p == 2 {
			return countingConn{c, &n}
		}
		return c
	}
	if _, err := solveWatchdog(t, e, g, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	return n.Load()
}

// killedMidSolve kills e's solve over g — the connection between nodes
// 1 and 2 cut mid-frame, after a growing share of the bytes that
// connection carries in a run from the same starting state — until the
// checkpoints it leaves resume past wave after, and returns that
// consistent state. Every crash must leave the directory usable: a
// fresh run killed before every node committed its first checkpoint
// leaves nothing to resume, so the next, later cut starts fresh again; a
// resumed run must leave a state to resume.
func killedMidSolve(t *testing.T, e Engine, g game.Game, after int) *resumeState {
	t.Helper()
	e.Timeout = 2 * time.Second
	for eighths := int64(2); eighths <= 6; eighths++ {
		fresh, err := loadResume(e.CheckpointDir, g, e.Workers)
		if err != nil {
			t.Fatal(err)
		}
		cut := pairBytes(t, e, g) * eighths / 8
		e.WrapConn = wrapPair(1, 2, faultnet.Plan{CutAfter: cut})
		if _, err := solveWatchdog(t, e, g, 20*time.Second); err == nil {
			t.Fatalf("solve survived a connection cut after %d bytes", cut)
		}
		st, err := loadResume(e.CheckpointDir, g, e.Workers)
		switch {
		case err != nil:
			t.Fatalf("checkpoints after the crash are unusable: %v", err)
		case st == nil && fresh != nil:
			t.Fatalf("a resumed run from wave %d crashed and left nothing to resume", fresh.wave)
		case st != nil && st.wave > after:
			return st
		}
	}
	t.Fatalf("no cut left a checkpoint to resume past wave %d", after)
	return nil
}

// resumeToEnd finishes the solve e left in its directory and requires
// the sequential engine's database and a cleared directory.
func resumeToEnd(t *testing.T, e Engine, g game.Game) *ra.Result {
	t.Helper()
	got, err := solveWatchdog(t, e, g, 20*time.Second)
	if err != nil {
		t.Fatalf("resumed solve failed: %v", err)
	}
	sameDatabase(t, "resumed", ra.SolveSequential(g), got)
	if left, _ := filepath.Glob(filepath.Join(e.CheckpointDir, "ckpt-*")); len(left) != 0 {
		t.Errorf("successful solve left checkpoints behind: %v", left)
	}
	return got
}

// checkpointInput is one game the kill-and-resume drills solve, with the
// kernel its mesh runs and therefore checkpoints. A random graph's
// resumed solve is also held to the reference solver.
type checkpointInput struct {
	g      game.Game
	kernel ra.Kernel
	graph  bool
}

// checkpointInputs are tic-tac-toe, whose 16-bit values run the scalar
// kernel, awari rung 5 (its lower rungs looked up from a sequential
// ladder), which runs SWAR, and a seeded random graph of each kernel: a
// mesh checkpoint stores either kernel's state.
func checkpointInputs(t *testing.T) []checkpointInput {
	t.Helper()
	lad, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 5, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return []checkpointInput{
		{ttt.New(), ra.KernelScalar, false},
		{lad.Slice(5), ra.KernelSWAR, false},
		{graphgame.New(2, graphgame.Shape{Size: 3000, Neg: 7, MaxInternal: 2, Cutoff: true}), ra.KernelSWAR, true},
		{graphgame.New(4, graphgame.Shape{Size: 3000, Neg: 200, MaxInternal: 2, Cutoff: true}), ra.KernelScalar, true},
	}
}

// resumeChecked finishes in's solve from the checkpoints in e's
// directory (resumeToEnd) and holds a random graph's result to the
// reference solver: values, loop set and waves.
func resumeChecked(t *testing.T, e Engine, in checkpointInput) {
	t.Helper()
	got := resumeToEnd(t, e, in.g)
	if in.graph {
		matchesReference(t, in.g.Name()+" resumed", graphgame.Solve(in.g), got)
	}
}

// matchesReference holds a random graph's result to the reference
// solver's: values, loop set and waves.
func matchesReference(t *testing.T, label string, want graphgame.Solution, got *ra.Result) {
	t.Helper()
	if got.Waves != want.Waves {
		t.Errorf("%s: solve ran %d waves, reference %d", label, got.Waves, want.Waves)
	}
	for p, v := range want.Values {
		if got.Values[p] != v || got.IsLoop(uint64(p)) != want.Loop[p] {
			t.Fatalf("%s: position %d has value %d (loop %v), reference %d (loop %v)",
				label, p, got.Values[p], got.IsLoop(uint64(p)), v, want.Loop[p])
		}
	}
}

// requireKernel fails unless every worker restored from a checkpoint
// runs kernel want.
func requireKernel(t *testing.T, st *resumeState, want ra.Kernel) {
	t.Helper()
	for i, w := range st.workers {
		if w.Kernel() != want {
			t.Fatalf("restored worker %d runs the %v kernel, want %v", i, w.Kernel(), want)
		}
	}
}

// TestKilledSolveResumesBitIdentical kills a checkpointing solve partway
// through with a mid-frame connection cut, then re-runs it in the same
// directory: the second run must resume from the newest wave every node
// checkpointed, under the kernel it was saved with, and produce the same
// database as the sequential engine.
func TestKilledSolveResumesBitIdentical(t *testing.T) {
	for _, in := range checkpointInputs(t) {
		base := Engine{Workers: 3, Batch: 32, CheckpointDir: t.TempDir(), CheckpointEvery: 1}
		st := killedMidSolve(t, base, in.g, 0)
		requireKernel(t, st, in.kernel)
		t.Logf("%s: resuming from wave %d", in.g.Name(), st.wave)

		// A mesh of a different size must refuse these checkpoints rather
		// than silently recompute or corrupt them.
		mismatched := Engine{Workers: base.Workers + 1, CheckpointDir: base.CheckpointDir}
		if _, err := mismatched.Solve(in.g); err == nil {
			t.Errorf("%s: resume with a different node count was accepted", in.g.Name())
		}
		resumeChecked(t, base, in)
	}
}

// newestCommitted returns the newest wave any node committed and a node
// that committed it.
func newestCommitted(dir string, p int) (wave, node int) {
	wave = -1
	for i := 0; i < p; i++ {
		for w, committed := range listCheckpoints(dir, i) {
			if committed && w > wave {
				wave, node = w, i
			}
		}
	}
	return wave, node
}

// TestUncommittedCheckpointIgnored: a node that died between writing its
// spill file and its manifest leaves a directory that never committed.
// Resume must pass it over for the previous wave every node committed —
// the coordinator cannot have started a later wave — finish bit-identical
// and clear the leftover.
func TestUncommittedCheckpointIgnored(t *testing.T) {
	g := ttt.New()
	base := Engine{Workers: 3, Batch: 32, CheckpointDir: t.TempDir(), CheckpointEvery: 1}
	killedMidSolve(t, base, g, 1)
	newest, node := newestCommitted(base.CheckpointDir, base.Workers)
	uncommitted := filepath.Join(base.CheckpointDir, ckptName(newest, node))
	if err := os.Remove(filepath.Join(uncommitted, oocore.ManifestName)); err != nil {
		t.Fatal(err)
	}
	if spills, _ := filepath.Glob(filepath.Join(uncommitted, "*.spill")); len(spills) != 1 {
		t.Fatalf("the uncommitted directory holds spill files %v, want one", spills)
	}
	if listCheckpoints(base.CheckpointDir, node)[newest] {
		t.Fatal("a directory without a manifest lists as committed")
	}
	st, err := loadResume(base.CheckpointDir, g, base.Workers)
	if err != nil || st == nil {
		t.Fatalf("resume past an uncommitted directory: %v, %v", st, err)
	}
	if st.wave != newest-1 {
		t.Errorf("resume picked wave %d; node %d never committed %d, so want %d", st.wave, node, newest, newest-1)
	}
	resumeToEnd(t, base, g)
}

// TestPartlyCommittedWaveNeverChosen: a wave some nodes committed and
// others did not is never the resume point, however new. When it is the
// first checkpoint wave, there is nothing to resume: the solve starts
// over and removes it — but only if every store is of this mesh.
func TestPartlyCommittedWaveNeverChosen(t *testing.T) {
	g := ttt.New()
	t.Run("first", func(t *testing.T) {
		base := Engine{Workers: 3, Batch: 32, CheckpointDir: t.TempDir(), CheckpointEvery: 1}
		part, err := ra.NewPartition(g.Size(), base.Workers, base.group())
		if err != nil {
			t.Fatal(err)
		}
		w, err := ra.NewWorkerKernel(g, part, 0, ra.KernelScalar)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Init(); err != nil {
			t.Fatal(err)
		}
		only := filepath.Join(base.CheckpointDir, ckptName(1, 0))
		if err := oocore.SaveShard(only, w, 1, 0); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			p int
			g game.Game
		}{{base.Workers + 1, g}, {base.Workers, nim.MustNew(2, 4)}} {
			if _, err := loadResume(base.CheckpointDir, c.g, c.p); err == nil {
				t.Errorf("%d nodes over %d positions started over on a 3-node store of %d", c.p, c.g.Size(), g.Size())
			}
		}
		if _, err := os.Stat(filepath.Join(only, oocore.ManifestName)); err != nil {
			t.Fatalf("a refused store was touched: %v", err)
		}
		st, err := loadResume(base.CheckpointDir, g, base.Workers)
		if err != nil || st != nil {
			t.Fatalf("resume over a partly committed first wave: %v, %v; want a fresh start", st, err)
		}
		if _, err := os.Stat(only); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("the partly committed first wave was left behind (%v)", err)
		}
		resumeToEnd(t, base, g)
	})

	base := Engine{Workers: 3, Batch: 32, CheckpointDir: t.TempDir(), CheckpointEvery: 1}
	killedMidSolve(t, base, g, 1)
	newest, node := newestCommitted(base.CheckpointDir, base.Workers)
	// Leave newest committed on node alone, whatever the crash left.
	for i := 0; i < base.Workers; i++ {
		if i != node {
			os.RemoveAll(filepath.Join(base.CheckpointDir, ckptName(newest, i)))
		}
	}
	st, err := loadResume(base.CheckpointDir, g, base.Workers)
	if err != nil || st == nil {
		t.Fatalf("resume past a partly committed wave: %v, %v", st, err)
	}
	if st.wave != newest-1 {
		t.Errorf("resume picked wave %d; only node %d committed %d, so want %d", st.wave, node, newest, newest-1)
	}
	resumeToEnd(t, base, g)
}

// TestKillResumeKillResume kills a solve, kills its resumed run again at
// a later wave — after it has saved over checkpoint directories the first
// run committed — and requires the second resume to finish bit-identical.
func TestKillResumeKillResume(t *testing.T) {
	for _, in := range checkpointInputs(t) {
		base := Engine{Workers: 3, Batch: 32, CheckpointDir: t.TempDir(), CheckpointEvery: 1}
		first := killedMidSolve(t, base, in.g, 0)
		second := killedMidSolve(t, base, in.g, first.wave)
		requireKernel(t, second, in.kernel)
		t.Logf("%s: killed at waves %d and %d", in.g.Name(), first.wave, second.wave)
		resumeChecked(t, base, in)
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

// rmcpHeader lays out the mesh header of the retired checkpoint format,
// versions 2 and 3: magic "RMCP", version, node count, node, partition
// group, the wave about to run and the productive-wave counter.
func rmcpHeader(version uint32, nodes, node int, group, wave, waves uint64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte("RMCP"), version)
	b = le.AppendUint32(b, uint32(nodes))
	b = le.AppendUint32(b, uint32(node))
	b = le.AppendUint64(b, group)
	b = le.AppendUint64(b, wave)
	return le.AppendUint64(b, waves)
}

// rmcpBody lays out a retired worker snapshot as a run's first
// checkpoint left it: kernel, shard size, zero-filled value and meta
// streams, lists empty lists (queue and next, plus the loop set before
// version 3), the stats words and a checksum.
func rmcpBody(n uint64, lists int) []byte {
	le := binary.LittleEndian
	body := le.AppendUint64([]byte{byte(ra.KernelScalar)}, n)
	body = append(body, make([]byte, 4*n+8*uint64(lists))...)
	body = le.AppendUint64(body, n)
	body = append(body, make([]byte, 8*8)...)
	return le.AppendUint64(body, crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
}

// TestParentVersionCheckpointsRefused: a checkpoint file of the retired
// per-node format must fail the solve with an error naming the file,
// its version and the retirement — never a silent fresh start, never a
// reinterpretation — and must be left in place. Version 1 had
// scalar-only shard bodies; version 2 bodies kept a loop-set list;
// version 3, the last, held a raw 4 B/position worker snapshot, replaced
// by a one-shard out-of-core store per node.
func TestParentVersionCheckpointsRefused(t *testing.T) {
	g := ttt.New()
	files := map[uint32]func(e Engine, i int) []byte{
		// The version 1 mesh header, then the 40-byte header that began
		// its shard body.
		1: func(e Engine, _ int) []byte {
			v1 := append([]byte("RMCP"), 1, 0, 0, 0, byte(e.Workers), 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0)
			v1 = append(v1, "RACP\x01\x00\x00\x00"...)
			return append(v1, make([]byte, 32)...)
		},
		2: func(e Engine, i int) []byte {
			n := ra.Cyclic(g.Size(), e.Workers).ShardSize(i)
			return append(rmcpHeader(2, e.Workers, i, e.group(), 4, 3), rmcpBody(n, 3)...)
		},
		3: func(e Engine, i int) []byte {
			n := ra.Cyclic(g.Size(), e.Workers).ShardSize(i)
			return append(rmcpHeader(3, e.Workers, i, e.group(), 4, 3), rmcpBody(n, 2)...)
		},
	}
	for _, version := range []uint32{1, 2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := t.TempDir()
			e := Engine{Workers: 2, CheckpointDir: dir}
			for i := 0; i < e.Workers; i++ {
				name := fmt.Sprintf("ckpt-w%08d-node-%03d.racp", 4, i)
				if err := os.WriteFile(filepath.Join(dir, name), files[version](e, i), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err := solveWatchdog(t, e, g, 20*time.Second)
			if err == nil {
				t.Fatalf("solve over version %d checkpoints succeeded", version)
			}
			msg := err.Error()
			if !strings.Contains(msg, filepath.Join(dir, "ckpt-w00000004-node-")) || !strings.Contains(msg, fmt.Sprintf("version %d", version)) || !strings.Contains(msg, "retired") {
				t.Errorf("error %q does not name the file, its version and the retirement", msg)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(left) != e.Workers {
				t.Errorf("refused solve disturbed the old checkpoints: %v", left)
			}
		})
	}
}
