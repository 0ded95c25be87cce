// Run parity: a worker walks the game's batch generators when it has them
// and per-position adapters otherwise, and the two walks must be
// indistinguishable — same database and the same work counters on every
// shard, because the simulated cluster charges virtual time from those
// counters. The host engines run scalar; the simulated cluster runs the
// auto kernel, so its row also crosses kernels (the per-position walk
// hides the lane contract and runs scalar).
package ra_test

import (
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/kalah"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
)

// perPositionOnly hides a game's optional interfaces (batch generators
// and lane contract), leaving the per-position Game methods.
type perPositionOnly struct{ game.Game }

func TestScalarRunParity(t *testing.T) {
	scalar := ra.Config{Kernel: ra.KernelScalar}
	top := 9
	if testing.Short() {
		top = 6
	}
	lad, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, top, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	games := make([]game.Game, 0, top+2)
	for n := 0; n <= top; n++ {
		games = append(games, lad.Slice(n))
	}
	if _, ok := games[top].(game.BatchIniter); !ok {
		t.Fatal("awari slices no longer implement the batch generators; this test compares nothing")
	}
	klad, err := kalah.BuildLadder(4, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	games = append(games, klad.Slice(4))

	type shape struct {
		engine ra.Engine
		kernel string // of the batch walk; the per-position walk hides the lane contract
		// Concurrent shards drain their inboxes while they expand, so how
		// many updates of a wave reach a position after its early cutoff
		// depends on goroutine timing; every other counter does not.
		timingFree bool
	}
	shapes := []shape{
		{ra.Sequential{Config: scalar}, "scalar", true},
		// The wire engines run the auto kernel: SWAR on every awari and
		// kalah rung here.
		{ra.Distributed{Workers: 4}, "swar", true},
	}
	for _, p := range []int{2, 3} {
		shapes = append(shapes, shape{ra.Concurrent{Workers: p, Config: scalar}, "scalar", false})
	}
	for _, g := range games {
		for _, s := range shapes {
			label := g.Name() + " " + s.engine.Name()
			want, err := s.engine.Solve(perPositionOnly{g})
			if err != nil {
				t.Fatalf("%s per-position: %v", label, err)
			}
			got, err := s.engine.Solve(g)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Kernel != s.kernel {
				t.Fatalf("%s: kernel %q, want %s", label, got.Kernel, s.kernel)
			}
			compareResults(t, label, want, got)
			for i := range want.Workers {
				ws, gs := want.Workers[i], got.Workers[i]
				if !s.timingFree {
					ws.UpdatesStale, gs.UpdatesStale = 0, 0
				}
				if ws != gs {
					t.Errorf("%s shard %d: work counters %+v, per-position walk %+v", label, i, got.Workers[i], want.Workers[i])
				}
			}
		}
	}
}
