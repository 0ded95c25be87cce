package ra_test

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/kalah"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
)

// TestLoopFlagInState pins the state-word contract that replaced the
// loop-set list: under both kernels a position is loop-resolved exactly
// when it is final with a nonzero counter. Hand-driven solves of awari
// rungs 0..9 and kalah rungs 0..5, on one shard and on three block-cyclic
// shards, check through PackState's symbols (counter<<1 | final) that
//   - after init and after every wave no final position holds a counter;
//   - the loop set ResolveLoops leaves behind, read back by FillLoop, is
//     exactly the set of positions still open at quiescence, its
//     popcount is LoopPositions, and it matches the scalar baseline.
//
// The early-cutoff paths are pinned one by one in
// TestLoopFlagInStateCutoffs.
func TestLoopFlagInState(t *testing.T) {
	scalar := ra.Sequential{Config: ra.Config{Kernel: ra.KernelScalar}}
	lad, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 9, scalar, nil)
	if err != nil {
		t.Fatal(err)
	}
	klad, err := kalah.BuildLadder(5, scalar, nil)
	if err != nil {
		t.Fatal(err)
	}
	type rung struct {
		g    game.Game
		want *ra.Result
	}
	var rungs []rung
	for n := 0; n <= lad.MaxStones(); n++ {
		rungs = append(rungs, rung{lad.Slice(n), lad.Result(n)})
	}
	for n := 0; n <= klad.MaxStones(); n++ {
		rungs = append(rungs, rung{klad.Slice(n), klad.Result(n)})
	}
	for _, r := range rungs {
		for _, k := range []ra.Kernel{ra.KernelScalar, ra.KernelSWAR} {
			for _, shards := range []int{1, 3} {
				part, err := ra.NewPartition(r.g.Size(), shards, 8)
				if err != nil {
					t.Fatal(err)
				}
				checkLoopFlag(t, fmt.Sprintf("%s %v p=%d", r.g.Name(), k, shards), r.g, part, k, r.want)
			}
		}
	}
}

// checkLoopFlag drives the shards of part through a full solve by hand
// (the routing TestWorkerShardedEquivalence uses) and checks the loop-flag
// invariants against the scalar baseline want.
func checkLoopFlag(t *testing.T, label string, g game.Game, part *ra.Partition, k ra.Kernel, want *ra.Result) {
	t.Helper()
	ws := make([]*ra.Worker, part.Workers())
	for i := range ws {
		w, err := ra.NewWorkerKernel(g, part, i, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Init(); err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	var vals, meta []game.Value
	// eachMeta calls f with every position's global index and its
	// counter<<1 | final, read from the stored symbols: the scalar meta
	// symbol, or the SWAR symbol above its 4-bit value.
	eachMeta := func(f func(global uint64, m game.Value)) {
		for i, w := range ws {
			vals, meta = w.PackState(vals, meta)
			for l, v := range vals {
				m := v >> 4
				if k == ra.KernelScalar {
					m = meta[l]
				}
				f(part.Global(i, uint64(l)), m)
			}
		}
	}
	noFinalCounters := func(stage string) {
		eachMeta(func(global uint64, m game.Value) {
			if m&1 == 1 && m>>1 != 0 {
				t.Fatalf("%s: %s: final position %d holds counter %d", label, stage, global, m>>1)
			}
		})
	}
	noFinalCounters("init")
	waves := 0
	for {
		total := 0
		for _, w := range ws {
			total += w.BeginWave()
		}
		if total == 0 {
			break
		}
		waves++
		for _, w := range ws {
			w.ExpandRuns(0, func(owner int, r ra.UpdateRun) { ws[owner].ApplyRun(r) })
		}
		noFinalCounters(fmt.Sprintf("wave %d", waves))
	}
	open := make([]uint64, (g.Size()+63)/64)
	eachMeta(func(global uint64, m game.Value) {
		if m&1 == 0 {
			open[global/64] |= 1 << (global % 64)
		}
	})
	got := ra.NewResult(part, waves)
	for _, w := range ws {
		w.ResolveLoops()
		got.Collect(w)
	}
	if !slices.Equal(got.Loop, open) {
		t.Fatalf("%s: loop set differs from the positions open at quiescence", label)
	}
	pop := 0
	for _, x := range got.Loop {
		pop += bits.OnesCount64(x)
	}
	if uint64(pop) != got.LoopPositions {
		t.Fatalf("%s: loop bitset has %d positions, LoopPositions = %d", label, pop, got.LoopPositions)
	}
	if !slices.Equal(got.Loop, want.Loop) || !slices.Equal(got.Values, want.Values) || got.Waves != want.Waves {
		t.Fatalf("%s: hand-driven solve differs from the scalar baseline", label)
	}
}
