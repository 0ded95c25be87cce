// Scalar-vs-SWAR parity: the bit-parallel kernel must produce databases
// bit-identical to the scalar kernel — same values, same loop sets, same
// wave counts — across games, engines, shard counts and batch sizes.
// Ladder-building games live in packages that import ra, so this is an
// external test.
package ra_test

import (
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/kalah"
	"retrograde/internal/ladder"
	"retrograde/internal/nim"
	"retrograde/internal/ra"
	"retrograde/internal/ttt"
)

// compareResults requires two results to describe the same database.
func compareResults(t *testing.T, label string, want, got *ra.Result) {
	t.Helper()
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: length mismatch", label)
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("%s: values differ at %d: %d vs %d", label, i, want.Values[i], got.Values[i])
		}
	}
	for i := range want.Loop {
		if got.Loop[i] != want.Loop[i] {
			t.Fatalf("%s: loop bitsets differ at word %d", label, i)
		}
	}
	if got.Waves != want.Waves {
		t.Errorf("%s: waves %d vs %d", label, want.Waves, got.Waves)
	}
	if got.LoopPositions != want.LoopPositions {
		t.Errorf("%s: loop positions %d vs %d", label, want.LoopPositions, got.LoopPositions)
	}
}

// TestSWARKernelParity is the acceptance gate of the bit-parallel kernel:
// for every lane-eligible game the SWAR Sequential engine and SWAR
// Concurrent engines (various shard counts and batch sizes, exercising
// the run-encoded transport) must match the scalar baseline exactly.
func TestSWARKernelParity(t *testing.T) {
	scalar := ra.Config{Kernel: ra.KernelScalar}
	swar := ra.Config{Kernel: ra.KernelSWAR}

	// Awari: cyclic (loop rule exercised), capture lookups, feeding
	// obligation. Build both rule/loop flavours scalar, then re-solve each
	// rung under SWAR configurations against the same lookup chain.
	for _, cfg := range []ladder.Config{
		{Rules: awari.Standard, Loop: awari.LoopOwnSide},
		{Rules: awari.Rules{GrandSlam: awari.GrandSlamForfeit, NoFeedObligation: true}, Loop: awari.LoopEvenSplit},
	} {
		lad, err := ladder.Build(cfg, 7, ra.Sequential{Config: scalar}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= lad.MaxStones(); n++ {
			g := lad.Slice(n)
			want := lad.Result(n)
			if want.Kernel != "scalar" {
				t.Fatalf("%s: baseline kernel %q", g.Name(), want.Kernel)
			}
			for _, e := range []ra.Engine{
				ra.Sequential{Config: swar},
				ra.Batched{Concurrent: ra.Concurrent{Workers: 3, Config: swar}, Batch: 4},
				ra.Concurrent{Workers: 4, Config: swar},
				ra.Batched{Concurrent: ra.Concurrent{Workers: 2, Config: swar}, Batch: 1},
			} {
				got, err := e.Solve(g)
				if err != nil {
					t.Fatalf("%s %s: %v", g.Name(), e.Name(), err)
				}
				if got.Kernel != "swar" {
					t.Fatalf("%s %s: kernel %q, want swar", g.Name(), e.Name(), got.Kernel)
				}
				compareResults(t, g.Name()+" "+e.Name(), want, got)
			}
		}
	}

	// Kalah: no batch generators, so the SWAR kernel runs its scalar
	// movegen fallback paths; results must still match exactly.
	lad, err := kalah.BuildLadder(5, ra.Sequential{Config: scalar}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= lad.MaxStones(); n++ {
		g := lad.Slice(n)
		want := lad.Result(n)
		for _, e := range []ra.Engine{
			ra.Sequential{Config: swar},
			ra.Concurrent{Workers: 3, Config: swar},
		} {
			got, err := e.Solve(g)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name(), e.Name(), err)
			}
			if got.Kernel != "swar" {
				t.Fatalf("%s %s: kernel %q, want swar", g.Name(), e.Name(), got.Kernel)
			}
			compareResults(t, g.Name()+" "+e.Name(), want, got)
		}
	}

	// Wide-valued games: KernelAuto must fall back to scalar and still
	// match the pinned scalar result.
	for _, g := range []game.Game{ttt.New(), nim.MustNew(3, 4)} {
		want, err := ra.Sequential{Config: scalar}.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ra.Concurrent{Workers: 3}.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kernel != "scalar" {
			t.Fatalf("%s: auto kernel %q, want scalar", g.Name(), got.Kernel)
		}
		compareResults(t, g.Name()+" auto", want, got)
	}
}

// TestDerivedPartitionParity runs the shared-memory engine's run-shaped
// partitions over the shapes that break block arithmetic: spaces smaller
// than one group (rungs 0-2: 1, 12 and 78 positions), more shards than
// groups (empty shards) and sizes that are no multiple of the group.
// Every derived group is whole loop-bitset words, so every shard fills
// its own words in parallel, which is what the race detector checks
// here. Values, waves, loop bitset and summed work counters must equal
// the scalar sequential solve's — all counters but UpdatesStale, which
// counts the updates that reach a position after an early cutoff
// finalized it and so depends on the order the updates of one wave
// arrive in.
func TestDerivedPartitionParity(t *testing.T) {
	lad, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 7, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	scalar := ra.Config{Kernel: ra.KernelScalar}
	orderFree := func(r *ra.Result) ra.WorkerStats {
		s := r.Totals()
		s.UpdatesStale = 0
		return s
	}
	for n := 0; n <= lad.MaxStones(); n++ {
		g := lad.Slice(n)
		want := ra.SolveSequential(g)
		for _, e := range []ra.Batched{
			{Concurrent: ra.Concurrent{Workers: 1}, Batch: 256},
			{Concurrent: ra.Concurrent{Workers: 2}, Batch: 256},
			{Concurrent: ra.Concurrent{Workers: 3}, Batch: 256},
			{Concurrent: ra.Concurrent{Workers: 4}, Batch: 1},
			{Concurrent: ra.Concurrent{Workers: 7}, Batch: 256},
			{Concurrent: ra.Concurrent{Workers: 16}, Batch: 256},
			{Concurrent: ra.Concurrent{Workers: 2, Config: scalar}, Batch: 256},
			{Concurrent: ra.Concurrent{Workers: 5, Config: scalar}, Batch: 256},
		} {
			label := g.Name() + " " + e.Name() + " " + e.Config.Kernel.String()
			got, err := e.Solve(g)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			compareResults(t, label, want, got)
			if orderFree(got) != orderFree(want) {
				t.Errorf("%s: summed work counters %+v, sequential %+v", label, got.Totals(), want.Totals())
			}
			if len(got.Phases) != e.Workers {
				t.Errorf("%s: %d phase clocks for %d shards", label, len(got.Phases), e.Workers)
			}
		}
	}
}
