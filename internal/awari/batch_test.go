package awari

import (
	"slices"
	"testing"

	"retrograde/internal/game"
)

// TestNextBoardMatchesUnrank walks small spaces rank by rank with the
// colex successor rule and compares every board against Unrank.
func TestNextBoardMatchesUnrank(t *testing.T) {
	for n := 0; n <= 6; n++ {
		sl := MustSlice(Standard, LoopOwnSide, n, zeroLookup)
		b := sl.Board(0)
		for idx := uint64(0); idx < sl.Size(); idx++ {
			if idx > 0 {
				nextBoard(&b)
			}
			if want := sl.Board(idx); b != want {
				t.Fatalf("stones %d: colex successor at rank %d = %v, Unrank gives %v", n, idx, b, want)
			}
		}
	}
}

// TestRankBoardMatchesSpaceRank checks the flat-table ranker against the
// index codec over whole small spaces and a sparse walk of a large one.
func TestRankBoardMatchesSpaceRank(t *testing.T) {
	for n := 0; n <= 6; n++ {
		sl := MustSlice(Standard, LoopOwnSide, n, zeroLookup)
		for idx := uint64(0); idx < sl.Size(); idx++ {
			b := sl.Board(idx)
			if got := rankBoard(&b, n); got != idx {
				t.Fatalf("stones %d: rankBoard(Board(%d)) = %d", n, idx, got)
			}
		}
	}
	sl := MustSlice(Standard, LoopOwnSide, MaxStones, zeroLookup)
	for idx := uint64(0); idx < sl.Size(); idx += sl.Size() / 1000 {
		b := sl.Board(idx)
		if got := rankBoard(&b, MaxStones); got != idx {
			t.Fatalf("stones %d: rankBoard(Board(%d)) = %d", MaxStones, idx, got)
		}
	}
}

// TestBatchGeneratorsWithRealLookup re-runs the batch-vs-scalar
// cross-check (game.Validate calls it) with a lookup whose result depends
// on the child's rank, so a misranked capture child cannot cancel out the
// way it would under a constant lookup. All four rule variants and all
// loop rules are covered.
func TestBatchGeneratorsWithRealLookup(t *testing.T) {
	if testing.Short() {
		t.Skip("batch cross-check skipped in -short mode")
	}
	rankEcho := func(stones int, idx uint64) game.Value {
		return game.Value(idx % uint64(stones+1))
	}
	ruleSets := []Rules{
		Standard,
		{GrandSlam: GrandSlamForfeit},
		{NoFeedObligation: true},
		{GrandSlam: GrandSlamForfeit, NoFeedObligation: true},
	}
	for _, rules := range ruleSets {
		for _, loop := range []LoopRule{LoopOwnSide, LoopEvenSplit, LoopZero} {
			sl := MustSlice(rules, loop, 6, rankEcho)
			if err := game.Validate(sl); err != nil {
				t.Errorf("rules %+v loop %v: %v", rules, loop, err)
			}
		}
	}
}

// TestPredecessorsRunOrder pins the order, not just the multiset, of the
// batch expander's predecessors: the wire engines expand each position as
// a run of one, and the simulated engines' message counts and virtual time
// depend on the order in which updates reach the combining buffers. Every
// position of rungs 0..9 under every rule variant must list exactly the
// sequence the scalar Predecessors returns.
func TestPredecessorsRunOrder(t *testing.T) {
	ruleSets := []Rules{
		Standard,
		{GrandSlam: GrandSlamForfeit},
		{NoFeedObligation: true},
		{GrandSlam: GrandSlamForfeit, NoFeedObligation: true},
	}
	var want []uint64
	for _, rules := range ruleSets {
		for n := 0; n <= 9; n++ {
			sl := MustSlice(rules, LoopOwnSide, n, zeroLookup)
			for idx := uint64(0); idx < sl.Size(); idx++ {
				want = sl.Predecessors(idx, want[:0])
				var got []uint64
				sl.PredecessorsRun(idx, 1, func(i int, preds []uint64) {
					if i != 0 {
						t.Fatalf("rules %+v stones %d: run of one visited position %d", rules, n, i)
					}
					got = append(got, preds...)
				})
				if !slices.Equal(got, want) {
					t.Fatalf("rules %+v stones %d position %d: PredecessorsRun lists %v, Predecessors %v", rules, n, idx, got, want)
				}
			}
		}
	}
}
