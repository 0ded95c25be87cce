package graphgame_test

import (
	"testing"

	"retrograde/internal/game"
	"retrograde/internal/graphgame"
	"retrograde/internal/ra"
)

// shapes are the three kinds of graph the oracle draws: lane-eligible
// with and without early cutoffs, and one too wide for the lanes in both
// values and branching.
var shapes = []graphgame.Shape{
	{Size: 300, Neg: 7, MaxInternal: 7, Cutoff: true},
	{Size: 300, Neg: 15, MaxInternal: 5},
	{Size: 300, Neg: 200, MaxInternal: 11, Cutoff: true},
}

// TestGraphsValidate holds every graph to the game contract, lane
// contract included, and checks that exactly the narrow shapes run under
// the SWAR kernel.
func TestGraphsValidate(t *testing.T) {
	for _, s := range shapes {
		for seed := range uint64(16) {
			g := graphgame.New(seed, s)
			if err := game.Validate(g); err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			if _, ok := ra.LaneEligible(g); ok != s.Lanes() {
				t.Fatalf("%s: lane-eligible %v, shape says %v", g.Name(), ok, s.Lanes())
			}
		}
	}
}

// TestGraphFeatures checks that the generator draws the shapes the
// oracle exists for, each at least once over a few seeds.
func TestGraphFeatures(t *testing.T) {
	s := shapes[0]
	var selfLoops, duplicates, terminals, resolved, ceiling, loops, cutoffAtLast int
	for seed := range uint64(8) {
		g := graphgame.New(seed, s)
		sol := graphgame.Solve(g)
		for p := range g.Size() {
			moves := g.Moves(p, nil)
			if len(moves) == 0 {
				terminals++
			}
			internal, last := 0, 0
			seen := map[uint64]bool{}
			for _, m := range moves {
				if !m.Internal {
					resolved++
					continue
				}
				internal++
				if m.Child == p {
					selfLoops++
				}
				if seen[m.Child] {
					duplicates++
				}
				seen[m.Child] = true
				last = max(last, sol.Round[m.Child])
			}
			if internal == s.MaxInternal {
				ceiling++
			}
			if sol.Loop[p] {
				loops++
			}
			// Decided by a cutoff in the wave that also brought the last
			// of its successors: the counter reaches zero with the cutoff.
			if k := sol.Round[p]; k > 0 && internal > 0 && last == k-1 && g.Finalizes(sol.Values[p]) && allDecided(g, sol, p) {
				cutoffAtLast++
			}
		}
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"self-loops", selfLoops}, {"duplicate edges", duplicates}, {"terminals", terminals},
		{"resolved moves", resolved}, {"counters at the lane ceiling", ceiling}, {"loop positions", loops},
		{"cutoffs with the last decrement", cutoffAtLast},
	} {
		if f.n == 0 {
			t.Errorf("no %s in 8 graphs of shape %+v", f.name, s)
		}
	}
}

func allDecided(g game.Game, sol graphgame.Solution, p uint64) bool {
	for _, m := range g.Moves(p, nil) {
		if m.Internal && sol.Round[m.Child] < 0 {
			return false
		}
	}
	return true
}

// TestSolveIsFixpoint holds the reference solver to ra.Audit, the
// database verifier: a third opinion that shares neither the solver's
// rounds nor the engines' counters.
func TestSolveIsFixpoint(t *testing.T) {
	for _, s := range shapes {
		for seed := range uint64(16) {
			g := graphgame.New(seed, s)
			sol := graphgame.Solve(g)
			r := &ra.Result{Values: sol.Values, Loop: make([]uint64, (g.Size()+63)/64)}
			for p, loop := range sol.Loop {
				if loop {
					r.Loop[p/64] |= 1 << (p % 64)
				}
			}
			if err := ra.Audit(g, r); err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
		}
	}
}
