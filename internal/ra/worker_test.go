package ra

import (
	"errors"
	"slices"
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/nim"
	"retrograde/internal/ttt"
)

// mustInit is Init for tests that build workers by hand; a counter
// overflow there is a bug in the test's game, so it escalates.
func mustInit(w *Worker) uint64 {
	n, err := w.Init()
	if err != nil {
		panic(err)
	}
	return n
}

// scalarWorker builds worker me under the scalar kernel, which every game
// can run, so construction cannot fail.
func scalarWorker(g game.Game, part *Partition, me int) *Worker {
	w, err := NewWorkerKernel(g, part, me, KernelScalar)
	if err != nil {
		panic(err)
	}
	return w
}

func TestNewWorkerValidation(t *testing.T) {
	g := nim.MustNew(2, 3)
	part := Cyclic(g.Size(), 2)
	for _, f := range []func(){
		func() { scalarWorker(g, part, -1) },
		func() { scalarWorker(g, part, 2) },
		func() { scalarWorker(g, Cyclic(g.Size()+1, 2), 0) }, // size mismatch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	w := scalarWorker(g, part, 1)
	if w.ID() != 1 {
		t.Errorf("ID() = %d", w.ID())
	}
	if w.ShardSize() != part.ShardSize(1) {
		t.Errorf("ShardSize() = %d", w.ShardSize())
	}
}

func TestWorkerInitCounts(t *testing.T) {
	g := nim.MustNew(2, 3) // 16 positions; only (0,0) is terminal
	part := Cyclic(g.Size(), 1)
	w := scalarWorker(g, part, 0)
	finals, err := w.Init()
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	if finals == 0 {
		t.Fatal("no positions finalized at init")
	}
	if w.Stats.InitFinal != finals {
		t.Errorf("Stats.InitFinal = %d, want %d", w.Stats.InitFinal, finals)
	}
	if w.Stats.MovesGenerated == 0 {
		t.Error("no moves generated")
	}
	if w.Pending() != int(finals) {
		t.Errorf("Pending() = %d, want %d", w.Pending(), finals)
	}
}

// TestWorkerPeekWave pins the frontier-peek contract the out-of-core
// scheduler relies on: positions finalized in the current wave are
// visible through PeekWave before BeginWave promotes them, the count
// survives DropState (the queues live outside the spillable state), and
// promotion drains it.
func TestWorkerPeekWave(t *testing.T) {
	g := nim.MustNew(2, 3)
	part := Cyclic(g.Size(), 1)
	w := scalarWorker(g, part, 0)
	finals, err := w.Init()
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	if got := w.PeekWave(); got != int(finals) {
		t.Fatalf("PeekWave after Init = %d, want %d", got, finals)
	}
	w.DropState()
	if got := w.PeekWave(); got != int(finals) {
		t.Errorf("PeekWave after DropState = %d, want %d", got, finals)
	}
	if n := w.BeginWave(); n != int(finals) {
		t.Fatalf("BeginWave = %d, want %d", n, finals)
	}
	if got := w.PeekWave(); got != 0 {
		t.Errorf("PeekWave after BeginWave = %d, want 0", got)
	}
}

func TestWorkerExpandLimit(t *testing.T) {
	g := ttt.New()
	part := Cyclic(g.Size(), 1)
	w := scalarWorker(g, part, 0)
	w.Init()
	n := w.BeginWave()
	if n == 0 {
		t.Fatal("no wave to expand")
	}
	var emitted int
	k := w.expandUpdates(1, func(owner int, u Update) { emitted++ })
	if k != 1 {
		t.Fatalf("expandUpdates(1) = %d", k)
	}
	// The rest of the queue remains.
	rest := w.expandUpdates(0, func(owner int, u Update) {})
	if rest != n-1 {
		t.Errorf("expandUpdates(0) after expandUpdates(1) = %d, want %d", rest, n-1)
	}
	if w.expandUpdates(0, func(owner int, u Update) {}) != 0 {
		t.Error("expandUpdates on an empty queue did not return 0")
	}
}

func TestWorkerApplyPanics(t *testing.T) {
	g := nim.MustNew(2, 3)
	part := Cyclic(g.Size(), 2)
	w := scalarWorker(g, part, 0)
	w.Init()
	// Update for a position owned by the other shard.
	defer func() {
		if recover() == nil {
			t.Error("Apply for a foreign position did not panic")
		}
	}()
	w.Apply(Update{Target: 1, Value: game.Loss(0)}) // idx 1 belongs to worker 1
}

func TestWorkerValuePanicsBeforeFinal(t *testing.T) {
	g := nim.MustNew(2, 3)
	part := Cyclic(g.Size(), 1)
	w := scalarWorker(g, part, 0)
	w.Init()
	// Position (3,3) is not final right after init.
	idx := g.Index([]int{3, 3})
	defer func() {
		if recover() == nil {
			t.Error("Value of a non-final position did not panic")
		}
	}()
	w.Value(idx)
}

func TestWorkerWorkingSetBytes(t *testing.T) {
	g := nim.MustNew(2, 3)
	part := Cyclic(g.Size(), 1)
	w := scalarWorker(g, part, 0)
	// 16 positions, one packed word each; queues empty before Init.
	if ws := w.WorkingSetBytes(); ws != 16*StateBytesPerPosition {
		t.Errorf("WorkingSetBytes() = %d, want %d", ws, 16*StateBytesPerPosition)
	}
	w.Init()
	// Queues now hold finalized positions but the per-position resident
	// state stays at StateBytesPerPosition.
	if ws := w.WorkingSetBytes(); ws < 16*StateBytesPerPosition {
		t.Errorf("WorkingSetBytes() after Init = %d, want >= %d", ws, 16*StateBytesPerPosition)
	}
}

// TestPackedStateLayout pins the packed word format: 16-bit value in the
// low bits, 15-bit successor counter above it, final bit on top — the
// ≤ 4 bytes/position contract of the in-core engines.
func TestPackedStateLayout(t *testing.T) {
	if StateBytesPerPosition != 4 {
		t.Fatalf("StateBytesPerPosition = %d, want 4", StateBytesPerPosition)
	}
	cases := []struct {
		v     game.Value
		cnt   int32
		final bool
	}{
		{0, 0, false},
		{game.NoValue, 0, false},
		{0x1234, 1, false},
		{0xFFFE, MaxSuccessors, false},
		{7, 42, true},
		{game.NoValue, MaxSuccessors, true},
	}
	for _, c := range cases {
		s := packState(c.v, c.cnt, c.final)
		if got := stateValue(s); got != c.v {
			t.Errorf("stateValue(pack(%v,%d,%v)) = %v", c.v, c.cnt, c.final, got)
		}
		if got := stateCounter(s); got != c.cnt {
			t.Errorf("stateCounter(pack(%v,%d,%v)) = %d", c.v, c.cnt, c.final, got)
		}
		if got := stateFinal(s); got != c.final {
			t.Errorf("stateFinal(pack(%v,%d,%v)) = %v", c.v, c.cnt, c.final, got)
		}
	}
	// Bit positions, not just roundtrips: value is the low 16 bits,
	// counter the next 15, final the sign bit.
	s := packState(0xABCD, 0x5555, true)
	if s != 0xABCD|0x5555<<16|1<<31 {
		t.Errorf("packState(0xABCD, 0x5555, true) = %#x", s)
	}
	// A fresh worker holds NoValue, zero counter, not final.
	g := nim.MustNew(2, 3)
	w := scalarWorker(g, Cyclic(g.Size(), 1), 0)
	if w.state[0] != uint32(game.NoValue) {
		t.Errorf("fresh state word = %#x, want %#x", w.state[0], uint32(game.NoValue))
	}
}

// hugeBranch is a game whose single non-terminal position has more
// internal successors than the packed counter can hold.
type hugeBranch struct{ n int }

func (h hugeBranch) Name() string { return "hugebranch" }
func (h hugeBranch) Size() uint64 { return 2 }
func (h hugeBranch) Moves(idx uint64, buf []game.Move) []game.Move {
	if idx == 0 {
		return buf
	}
	for i := 0; i < h.n; i++ {
		buf = append(buf, game.Move{Internal: true, Child: 0})
	}
	return buf
}
func (hugeBranch) TerminalValue(uint64) game.Value { return 0 }
func (hugeBranch) Predecessors(idx uint64, buf []uint64) []uint64 {
	if idx == 0 {
		buf = append(buf, 1)
	}
	return buf
}
func (hugeBranch) MoverValue(v game.Value) game.Value { return v }
func (hugeBranch) Better(a, b game.Value) bool        { return a > b }
func (hugeBranch) Finalizes(game.Value) bool          { return false }
func (hugeBranch) LoopValue(uint64) game.Value        { return 0 }
func (hugeBranch) ValueBits() int                     { return 16 }

// hugeBranchBatch is hugeBranch with its own batch init generator, so
// the overflowing count reaches Init through InitStrided.
type hugeBranchBatch struct{ hugeBranch }

func (h hugeBranchBatch) InitStrided(base, stride uint64, n int, out []game.InitStat) {
	for i := range out[:n] {
		out[i] = game.InitStat{Best: game.NoValue}
		if base+uint64(i)*stride != 0 {
			out[i] = game.InitStat{Moves: int32(h.n), Internal: int32(h.n), Best: game.NoValue}
		}
	}
}

func TestInitRejectsCounterOverflow(t *testing.T) {
	huge := hugeBranch{n: int(MaxSuccessors) + 1}
	for _, g := range []game.Game{huge, hugeBranchBatch{huge}} {
		w := scalarWorker(g, Cyclic(g.Size(), 1), 0)
		_, err := w.Init()
		var ce *game.CounterOverflowError
		if !errors.As(err, &ce) {
			t.Fatalf("%T: Init with > MaxSuccessors internal moves: err = %v, want CounterOverflowError", g, err)
		}
		if ce.Position != 1 || ce.Internal != int64(MaxSuccessors)+1 || ce.Max != int64(MaxSuccessors) {
			t.Errorf("%T: CounterOverflowError = %+v", g, ce)
		}
	}
}

// TestConcurrentInitError: an Init failure on one shard must end the
// solve on every shard — the ones that initialised cleanly are waiting
// for it at the first barrier.
func TestConcurrentInitError(t *testing.T) {
	g := hugeBranch{n: int(MaxSuccessors) + 1}
	for _, p := range []int{1, 3} {
		_, err := Concurrent{Workers: p}.Solve(g)
		var ce *game.CounterOverflowError
		if !errors.As(err, &ce) {
			t.Fatalf("p=%d: Solve = %v, want CounterOverflowError", p, err)
		}
	}
}

// TestExpandOwnerGroupedRuns checks the grouped-emission contract: within
// a grouping chunk, remote updates arrive in owner-grouped ascending
// runs, self-owned updates arrive first, and the multiset of emitted
// edges matches the predecessor relation exactly.
func TestExpandOwnerGroupedRuns(t *testing.T) {
	g := ttt.New()
	const p = 4
	part := Cyclic(g.Size(), p)
	ws := make([]*Worker, p)
	for i := range ws {
		ws[i] = scalarWorker(g, part, i)
		ws[i].Init()
	}
	for i, w := range ws {
		w.BeginWave()
		type edge struct {
			owner  int
			target uint64
		}
		got := map[edge]int{}
		// One call per grouping chunk, so every chunk's order is checked:
		// self-owned edges first, then remote ones in ascending owner runs.
		for {
			var order []int
			n := w.expandUpdates(groupChunk, func(owner int, u Update) {
				got[edge{owner, u.Target}]++
				if owner == i {
					if len(order) > 0 {
						t.Fatalf("worker %d: self-owned edge %d after a remote run in one chunk", i, u.Target)
					}
					return
				}
				if len(order) == 0 || order[len(order)-1] != owner {
					order = append(order, owner)
				}
			})
			for j := 1; j < len(order); j++ {
				if order[j] <= order[j-1] {
					t.Fatalf("worker %d: remote owner runs not ascending: %v", i, order)
				}
			}
			if n == 0 {
				break
			}
		}
		// The emitted multiset matches Predecessors exactly.
		want := map[edge]int{}
		w2 := scalarWorker(g, part, i)
		w2.Init()
		w2.BeginWave()
		var preds []uint64
		for _, local := range w2.queue {
			global := part.Global(i, local)
			preds = g.Predecessors(global, preds[:0])
			for _, q := range preds {
				want[edge{part.Owner(q), q}]++
			}
		}
		if len(got) != len(want) {
			t.Fatalf("worker %d: emitted %d distinct edges, want %d", i, len(got), len(want))
		}
		for e, n := range want {
			if got[e] != n {
				t.Fatalf("worker %d: edge %+v emitted %d times, want %d", i, e, got[e], n)
			}
		}
	}
}

// TestExpandLocalMatchesExpand checks that the self-delivery fast path
// carries exactly the self-owned edges a wire node's expansion emits.
func TestExpandLocalMatchesExpand(t *testing.T) {
	g := ttt.New()
	part := Cyclic(g.Size(), 3)
	a := scalarWorker(g, part, 0)
	b := scalarWorker(g, part, 0)
	a.Init()
	b.Init()
	a.BeginWave()
	b.BeginWave()
	countA := map[Update]int{}
	remoteA := map[Update]int{}
	a.expandUpdates(0, func(owner int, u Update) {
		if owner == 0 {
			countA[u]++
		} else {
			remoteA[u]++
		}
	})
	countB := map[Update]int{}
	remoteB := map[Update]int{}
	b.ExpandLocal(0, func(u Update) { countB[u]++ }, func(owner int, u Update) {
		if owner == 0 {
			t.Fatalf("ExpandLocal emitted self-owned update %+v", u)
		}
		remoteB[u]++
	})
	if len(countA) == 0 {
		t.Fatal("no self-owned edges in test game")
	}
	for u, n := range countA {
		if countB[u] != n {
			t.Fatalf("self edge %+v: apply saw %d, emit saw %d", u, countB[u], n)
		}
	}
	for u, n := range remoteA {
		if remoteB[u] != n {
			t.Fatalf("remote edge %+v: %d vs %d", u, remoteB[u], n)
		}
	}

	// The host-time carrier on the scalar kernel: ExpandRuns + ApplyRun
	// must deliver, wave by wave, the same multiset of cross-shard updates
	// as a wire node's expansion + Apply and leave every shard in the
	// same state.
	var wire, host [3]*Worker
	for i := range wire {
		wire[i], host[i] = scalarWorker(g, part, i), scalarWorker(g, part, i)
		mustInit(wire[i])
		mustInit(host[i])
	}
	for wave := 1; ; wave++ {
		total := 0
		for i := range wire {
			if n := wire[i].BeginWave(); n != host[i].BeginWave() {
				t.Fatalf("wave %d shard %d: frontiers differ", wave, i)
			} else {
				total += n
			}
		}
		if total == 0 {
			break
		}
		sent := map[Update]int{}
		for i := range wire {
			wire[i].expandUpdates(0, func(owner int, u Update) {
				if owner != i {
					sent[u]++
				}
				wire[owner].Apply(u)
			})
			host[i].ExpandRuns(0, func(owner int, r UpdateRun) {
				if owner == i {
					t.Fatalf("ExpandRuns emitted self-owned run %+v", r)
				}
				for k := uint64(0); k < uint64(r.Count); k++ {
					sent[Update{Target: r.Base + k, Value: r.Value}]--
				}
				host[owner].ApplyRun(r)
			})
		}
		for u, n := range sent {
			if n != 0 {
				t.Fatalf("wave %d: update %+v delivered %+d more times by the wire expansion than by ExpandRuns", wave, u, n)
			}
		}
	}
	for i := range wire {
		if !slices.Equal(wire[i].state, host[i].state) || wire[i].Stats != host[i].Stats {
			t.Fatalf("shard %d: ExpandRuns+ApplyRun ended in a different state than the wire expansion+Apply", i)
		}
	}
}

// expandRef is the per-position expansion the wire engines ran before
// they went through the run generator: the scalar Predecessors of each
// queued position, self-owned edges emitted inline, remote edges gathered
// and flushed owner-grouped per grouping chunk. It is kept only as the
// reference TestExpandOrderMatchesPerPosition holds the one expansion
// loop to.
func expandRef(w *Worker, limit int, emit func(owner int, u Update)) int {
	queue := w.pop(limit)
	var preds []uint64
	for rest := queue; len(rest) > 0; {
		n := min(len(rest), groupChunk)
		for _, local := range rest[:n] {
			v := w.valueAt(local)
			preds = w.g.Predecessors(w.part.Global(w.me, local), preds[:0])
			w.Stats.PredsGenerated += uint64(len(preds))
			for _, q := range preds {
				u := Update{Target: q, Value: v}
				if o := w.part.Owner(q); o != w.me {
					w.gather(o, u)
				} else {
					emit(w.me, u)
				}
			}
		}
		w.flushRemote(func(owner int, r UpdateRun) {
			for t := r.Base; t < r.Base+uint64(r.Count); t++ {
				emit(owner, Update{Target: t, Value: r.Value})
			}
		})
		rest = rest[n:]
	}
	return len(queue)
}

// TestExpandOrderMatchesPerPosition pins the exact (owner, update)
// sequence a wire node's expansion emits — not just its multiset —
// against the per-position reference, wave by wave over a whole solve of
// awari rung 6 on three cyclic shards, under both kernels. The simulated
// engines' message counts and virtual time depend on this order.
func TestExpandOrderMatchesPerPosition(t *testing.T) {
	g := awariRung(t, 6, awari.Standard, awari.LoopOwnSide)
	const p = 3
	part := Cyclic(g.Size(), p)
	type edge struct {
		owner int
		u     Update
	}
	for _, kern := range []Kernel{KernelScalar, KernelSWAR} {
		var got, want [p]*Worker
		for i := range got {
			var err error
			if got[i], err = NewWorkerKernel(g, part, i, kern); err != nil {
				t.Fatal(err)
			}
			want[i], _ = NewWorkerKernel(g, part, i, kern)
			mustInit(got[i])
			mustInit(want[i])
		}
		var gotSeq, wantSeq []edge
		for wave := 1; ; wave++ {
			total := 0
			for i := range got {
				if n := got[i].BeginWave(); n != want[i].BeginWave() {
					t.Fatalf("%v wave %d shard %d: frontiers differ", kern, wave, i)
				} else {
					total += n
				}
			}
			if total == 0 {
				break
			}
			for i := range got {
				// Uneven limits cut the queue across grouping chunks.
				for limit := 1; ; limit += 700 {
					gotSeq, wantSeq = gotSeq[:0], wantSeq[:0]
					n := got[i].expandUpdates(limit, func(owner int, u Update) { gotSeq = append(gotSeq, edge{owner, u}) })
					if m := expandRef(want[i], limit, func(owner int, u Update) { wantSeq = append(wantSeq, edge{owner, u}) }); n != m {
						t.Fatalf("%v wave %d shard %d: expansion took %d positions, reference %d", kern, wave, i, n, m)
					}
					if !slices.Equal(gotSeq, wantSeq) {
						t.Fatalf("%v wave %d shard %d: expansion emitted %d edges in a different order than the per-position reference (%d)", kern, wave, i, len(gotSeq), len(wantSeq))
					}
					for _, e := range gotSeq {
						got[e.owner].Apply(e.u)
						want[e.owner].Apply(e.u)
					}
					if n == 0 {
						break
					}
				}
			}
		}
		for i := range got {
			if !slices.Equal(got[i].state, want[i].state) || !slices.Equal(got[i].lane, want[i].lane) || got[i].Stats != want[i].Stats {
				t.Fatalf("%v shard %d: expansion ended in a different state than the reference", kern, i)
			}
		}
	}
}

// TestWorkerShardedEquivalence drives two workers by hand (routing
// updates between them) and compares against the sequential result —
// the worker contract the engine drivers rely on, without any driver.
func TestWorkerShardedEquivalence(t *testing.T) {
	g := ttt.New()
	want := SolveSequential(g)
	part := Cyclic(g.Size(), 2)
	ws := []*Worker{scalarWorker(g, part, 0), scalarWorker(g, part, 1)}
	for _, w := range ws {
		w.Init()
	}
	for {
		total := 0
		for _, w := range ws {
			total += w.BeginWave()
		}
		if total == 0 {
			break
		}
		for _, w := range ws {
			w.expandUpdates(0, func(owner int, u Update) { ws[owner].Apply(u) })
		}
	}
	for _, w := range ws {
		w.ResolveLoops()
	}
	values := make([]game.Value, g.Size())
	for _, w := range ws {
		w.Fill(values)
	}
	for idx := range want.Values {
		if values[idx] != want.Values[idx] {
			t.Fatalf("hand-driven shards differ at %d", idx)
		}
	}
}
