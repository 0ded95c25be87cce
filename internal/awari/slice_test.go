package awari

import (
	"math/rand"
	"testing"

	"retrograde/internal/game"
	"retrograde/internal/index"
)

// zeroLookup resolves every smaller-database position to 0 captured
// stones. Only suitable for tests that do not interpret resolved values.
func zeroLookup(int, uint64) game.Value { return 0 }

func TestSpaceSizesMatchBinomials(t *testing.T) {
	for n := 0; n <= MaxStones; n++ {
		if got, want := Size(n), index.Binomial(n+Pits-1, Pits-1); got != want {
			t.Errorf("Size(%d) = %d, want %d", n, got, want)
		}
	}
	// The paper's 13-stone database.
	if Size(13) != 2496144 {
		t.Errorf("Size(13) = %d, want 2496144", Size(13))
	}
}

func TestNewSliceValidation(t *testing.T) {
	if _, err := NewSlice(Standard, LoopOwnSide, -1, zeroLookup); err == nil {
		t.Error("NewSlice(-1) succeeded")
	}
	if _, err := NewSlice(Standard, LoopOwnSide, MaxStones+1, zeroLookup); err == nil {
		t.Error("NewSlice(49) succeeded")
	}
	if _, err := NewSlice(Standard, LoopOwnSide, 5, nil); err == nil {
		t.Error("NewSlice(5, nil lookup) succeeded")
	}
	if _, err := NewSlice(Standard, LoopOwnSide, 1, nil); err != nil {
		t.Errorf("NewSlice(1, nil lookup) failed: %v", err)
	}
}

func TestSliceBoardIndexRoundTrip(t *testing.T) {
	sl := MustSlice(Standard, LoopOwnSide, 9, zeroLookup)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		idx := rng.Uint64() % sl.Size()
		board := sl.Board(idx)
		if board.Stones() != 9 {
			t.Fatalf("Board(%d) holds %d stones", idx, board.Stones())
		}
		if back := sl.Index(board); back != idx {
			t.Fatalf("Index(Board(%d)) = %d", idx, back)
		}
	}
}

func TestSliceName(t *testing.T) {
	if got := MustSlice(Standard, LoopOwnSide, 7, zeroLookup).Name(); got != "awari-7" {
		t.Errorf("Name() = %q", got)
	}
}

func TestSliceValueAlgebra(t *testing.T) {
	sl := MustSlice(Standard, LoopOwnSide, 10, zeroLookup)
	if sl.MoverValue(3) != 7 {
		t.Errorf("MoverValue(3) = %d, want 7", sl.MoverValue(3))
	}
	if !sl.Better(5, 4) || sl.Better(4, 5) || sl.Better(4, 4) {
		t.Error("Better is not the numeric order")
	}
	if !sl.Better(0, game.NoValue) {
		t.Error("real value not better than NoValue")
	}
	if sl.Better(game.NoValue, 0) {
		t.Error("NoValue better than a real value")
	}
	if !sl.Finalizes(10) || sl.Finalizes(9) {
		t.Error("Finalizes should hold exactly at the stone total")
	}
}

func TestSliceValueBits(t *testing.T) {
	cases := []struct{ stones, bits int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {13, 4}, {15, 4}, {16, 5}, {48, 6},
	}
	for _, c := range cases {
		sl := MustSlice(Standard, LoopOwnSide, c.stones, zeroLookup)
		if got := sl.ValueBits(); got != c.bits {
			t.Errorf("ValueBits(%d stones) = %d, want %d", c.stones, got, c.bits)
		}
	}
}

func TestSliceLoopValue(t *testing.T) {
	// A 7-stone board with 3 stones on the mover's side.
	board := b(1, 2, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0)
	for _, c := range []struct {
		rule LoopRule
		want game.Value
	}{
		{LoopOwnSide, 3},
		{LoopEvenSplit, 3}, // floor(7/2)
		{LoopZero, 0},
	} {
		sl := MustSlice(Standard, c.rule, 7, zeroLookup)
		if got := sl.LoopValue(sl.Index(board)); got != c.want {
			t.Errorf("LoopValue under %v = %d, want %d", c.rule, got, c.want)
		}
	}
}

func TestLoopRuleString(t *testing.T) {
	if LoopOwnSide.String() != "own-side" || LoopEvenSplit.String() != "even-split" || LoopZero.String() != "zero" {
		t.Error("LoopRule.String mismatch")
	}
	if LoopRule(9).String() != "LoopRule(9)" {
		t.Error("unknown LoopRule.String mismatch")
	}
	if GrandSlamAllowed.String() != "allowed" || GrandSlamForfeit.String() != "forfeit" {
		t.Error("GrandSlamRule.String mismatch")
	}
	if GrandSlamRule(9).String() != "GrandSlamRule(9)" {
		t.Error("unknown GrandSlamRule.String mismatch")
	}
}

func TestSliceMovesResolveCaptures(t *testing.T) {
	// lookup returning a fixed value lets us check the n - v arithmetic.
	lookup := func(stones int, idx uint64) game.Value { return 1 }
	sl := MustSlice(Standard, LoopOwnSide, 7, lookup)
	// Board: sowing 2 from pit 5 lands in pit 7 making 3, chain captures
	// pit7 (3) and pit6 (2): 5 stones captured, 2 remain.
	board := b(0, 0, 0, 0, 0, 2, 1, 2, 2, 0, 0, 0)
	moves := sl.Moves(sl.Index(board), nil)
	var captureMove *game.Move
	for i := range moves {
		if !moves[i].Internal {
			captureMove = &moves[i]
		}
	}
	if captureMove == nil {
		t.Fatal("no capturing move found")
	}
	// Mover's value = n - v(child) = 7 - 1 = 6.
	if captureMove.Value != 6 {
		t.Errorf("capture move value = %d, want 6", captureMove.Value)
	}
	// Ranking the captured child goes through a stack array.
	idx, buf := sl.Index(board), make([]game.Move, 0, RowSize)
	if allocs := testing.AllocsPerRun(100, func() { buf = sl.Moves(idx, buf[:0]) }); allocs != 0 {
		t.Errorf("Moves allocates %v times per capturing position, want 0", allocs)
	}
}

func TestSliceMovesInternalChild(t *testing.T) {
	sl := MustSlice(Standard, LoopOwnSide, 4, zeroLookup)
	// No captures possible from this board's moves: everything internal.
	board := b(1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1)
	idx := sl.Index(board)
	moves := sl.Moves(idx, nil)
	if len(moves) != 1 || !moves[0].Internal {
		t.Fatalf("moves = %+v, want one internal move", moves)
	}
	child, captured := Standard.Apply(board, 0)
	if captured != 0 {
		t.Fatal("unexpected capture")
	}
	if moves[0].Child != sl.Index(child) {
		t.Errorf("child index = %d, want %d", moves[0].Child, sl.Index(child))
	}
}

func TestSliceTerminalValue(t *testing.T) {
	sl := MustSlice(Standard, LoopOwnSide, 3, zeroLookup)
	// Mover's row empty: opponent keeps everything, mover gets 0.
	starvedMover := b(0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0)
	if got := sl.TerminalValue(sl.Index(starvedMover)); got != 0 {
		t.Errorf("TerminalValue(starved mover) = %d, want 0", got)
	}
	// Opponent starved and unreachable: mover takes his own 3 stones.
	cannotFeed := b(3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if len(sl.Moves(sl.Index(cannotFeed), nil)) != 0 {
		t.Fatal("expected terminal position")
	}
	if got := sl.TerminalValue(sl.Index(cannotFeed)); got != 3 {
		t.Errorf("TerminalValue(cannot feed) = %d, want 3", got)
	}
}

// TestValidateSlices is the central move/un-move consistency check: for
// every small database slice, the predecessor relation must be the exact
// multiset inverse of the internal move relation, under both grand-slam
// conventions and with the feeding obligation on and off.
func TestValidateSlices(t *testing.T) {
	for _, rules := range ruleSets {
		for n := 0; n <= 5; n++ {
			sl := MustSlice(rules, LoopOwnSide, n, zeroLookup)
			if err := game.Validate(sl); err != nil {
				t.Errorf("rules %+v: %v", rules, err)
			}
		}
	}
}

// TestValidateSliceMedium runs the same exhaustive check on a mid-size
// slice under the standard rules (6 stones: 12376 positions).
func TestValidateSliceMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("medium validation skipped in -short mode")
	}
	sl := MustSlice(Standard, LoopOwnSide, 6, zeroLookup)
	if err := game.Validate(sl); err != nil {
		t.Error(err)
	}
}

// TestPredecessorsSpotCheck verifies predecessors against a brute-force
// scan of the full 7-stone space for a random sample of targets.
func TestPredecessorsSpotCheck(t *testing.T) {
	sl := MustSlice(Standard, LoopOwnSide, 7, zeroLookup)
	rng := rand.New(rand.NewSource(4))
	targets := map[uint64]bool{}
	for len(targets) < 20 {
		targets[rng.Uint64()%sl.Size()] = true
	}
	// Brute force: count internal edges q -> target across the space.
	want := map[uint64]map[uint64]int{}
	for tgt := range targets {
		want[tgt] = map[uint64]int{}
	}
	var moves []game.Move
	for q := uint64(0); q < sl.Size(); q++ {
		moves = sl.Moves(q, moves[:0])
		for _, m := range moves {
			if m.Internal && want[m.Child] != nil {
				want[m.Child][q]++
			}
		}
	}
	for tgt := range targets {
		got := map[uint64]int{}
		for _, q := range sl.Predecessors(tgt, nil) {
			got[q]++
		}
		if len(got) != len(want[tgt]) {
			t.Fatalf("target %d: %d predecessors, want %d", tgt, len(got), len(want[tgt]))
		}
		for q, k := range want[tgt] {
			if got[q] != k {
				t.Fatalf("target %d: predecessor %d multiplicity %d, want %d", tgt, q, got[q], k)
			}
		}
	}
}

func TestPredecessorsNeverCapture(t *testing.T) {
	sl := MustSlice(Standard, LoopOwnSide, 5, zeroLookup)
	var preds []uint64
	for idx := uint64(0); idx < sl.Size(); idx++ {
		preds = sl.Predecessors(idx, preds[:0])
		for _, q := range preds {
			if sl.Board(q).Stones() != 5 {
				t.Fatalf("predecessor %d of %d has %d stones", q, idx, sl.Board(q).Stones())
			}
		}
	}
}

// TestQuickMoveUnmoveInverse is the full-scale inverse property: for
// random boards of any stone count up to 48, every legal non-capturing
// move q -> p must list q among p's predecessors (with the right
// multiplicity), and every predecessor must reach p by a real move.
// Exhaustive validation covers small totals; this covers the rest.
func TestQuickMoveUnmoveInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var moves []game.Move
	var preds []uint64
	for trial := 0; trial < 400; trial++ {
		stones := 1 + rng.Intn(MaxStones)
		sl := MustSlice(Standard, LoopOwnSide, stones, zeroLookup)
		idx := rng.Uint64() % sl.Size()
		moves = sl.Moves(idx, moves[:0])
		for _, m := range moves {
			if !m.Internal {
				continue
			}
			preds = sl.Predecessors(m.Child, preds[:0])
			count := 0
			for _, q := range preds {
				if q == idx {
					count++
				}
			}
			want := 0
			for _, m2 := range moves {
				if m2.Internal && m2.Child == m.Child {
					want++
				}
			}
			if count != want {
				t.Fatalf("stones=%d: %v reaches %d by %d moves, predecessors list it %d times",
					stones, sl.Board(idx), m.Child, want, count)
			}
		}
		// Reverse direction on a random target: every predecessor must
		// really move to it.
		target := rng.Uint64() % sl.Size()
		preds = sl.Predecessors(target, preds[:0])
		for _, q := range preds {
			found := false
			for _, m := range sl.Moves(q, moves[:0]) {
				if m.Internal && m.Child == target {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("stones=%d: predecessor %d of %d has no move to it", stones, q, target)
			}
		}
	}
}
