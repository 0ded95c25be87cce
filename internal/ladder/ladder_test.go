package ladder

import (
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/ra"
)

func board(pits ...int) awari.Board {
	var b awari.Board
	for i, c := range pits {
		b[i] = int8(c)
	}
	return b
}

func buildStandard(t *testing.T, maxStones int) *Ladder {
	t.Helper()
	l, err := Build(Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, maxStones, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{}, -1, ra.Sequential{}, nil); err == nil {
		t.Error("Build(-1) succeeded")
	}
	if _, err := Build(Config{}, awari.MaxStones+1, ra.Sequential{}, nil); err == nil {
		t.Error("Build(49) succeeded")
	}
}

func TestSolveRungRequiresLowerRungs(t *testing.T) {
	l := &Ladder{}
	if _, err := l.SolveRung(3, ra.Sequential{}); err == nil {
		t.Error("SolveRung(3) on an empty ladder succeeded")
	}
}

func TestZeroStoneDatabase(t *testing.T) {
	l := buildStandard(t, 0)
	if l.MaxStones() != 0 {
		t.Fatalf("MaxStones = %d", l.MaxStones())
	}
	if v := l.Lookup(0, 0); v != 0 {
		t.Errorf("empty board value = %d, want 0", v)
	}
}

// TestOneStoneDatabaseByHand checks the fully hand-computed 1-stone
// database: a stone in the opponent's row is a terminal 0 (the mover's
// row is empty); a stone in the mover's pits 0..4 cannot feed the starved
// opponent, ending the game with the mover capturing it (value 1); a
// stone in pit 5 must be fed to the opponent, who then keeps it (value 0).
func TestOneStoneDatabaseByHand(t *testing.T) {
	l := buildStandard(t, 1)
	for pit := 0; pit < awari.Pits; pit++ {
		var pits [awari.Pits]int
		pits[pit] = 1
		b := board(pits[:]...)
		want := game.Value(0)
		if pit < 5 {
			want = 1
		}
		if got := l.Value(b); got != want {
			t.Errorf("stone in pit %d: value %d, want %d", pit, got, want)
		}
	}
}

// TestLadderAudit verifies every rung of a small ladder is a correct
// retrograde fixpoint, under all three loop rules.
func TestLadderAudit(t *testing.T) {
	for _, loop := range []awari.LoopRule{awari.LoopOwnSide, awari.LoopEvenSplit, awari.LoopZero} {
		cfg := Config{Rules: awari.Standard, Loop: loop}
		l, err := Build(cfg, 6, ra.Sequential{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= 6; n++ {
			if err := ra.Audit(l.Slice(n), l.Result(n)); err != nil {
				t.Errorf("loop rule %v: %v", loop, err)
			}
		}
	}
}

// TestValuesWithinRange checks every database value lies in [0, n].
func TestValuesWithinRange(t *testing.T) {
	l := buildStandard(t, 7)
	for n := 0; n <= 7; n++ {
		for idx, v := range l.Result(n).Values {
			if int(v) > n {
				t.Fatalf("rung %d position %d: value %d out of range", n, idx, v)
			}
		}
	}
}

// TestZeroSum checks the zero-sum identity across a move: if the mover
// plays optimally into child c, his value is n - (value of c for the
// opponent) — i.e. the best move's value equals the position value.
func TestZeroSum(t *testing.T) {
	l := buildStandard(t, 6)
	slice := l.Slice(6)
	var moves []game.Move
	for idx := uint64(0); idx < slice.Size(); idx++ {
		moves = slice.Moves(idx, moves[:0])
		if len(moves) == 0 || l.Result(6).IsLoop(idx) {
			continue
		}
		best := game.NoValue
		for _, m := range moves {
			if m.Internal {
				best = game.BetterOf(slice, best, slice.MoverValue(l.Lookup(6, m.Child)))
			} else {
				best = game.BetterOf(slice, best, m.Value)
			}
		}
		if got := l.Lookup(6, idx); got != best {
			t.Fatalf("position %d: value %d but best move yields %d", idx, got, best)
		}
	}
}

func TestBestMove(t *testing.T) {
	l := buildStandard(t, 6)
	// A position with an immediate grand-slam capture: sowing pit 5 makes
	// pit 6 hold 2 and captures both stones.
	b := board(0, 0, 0, 0, 3, 1, 1, 0, 0, 0, 0, 0)
	pit, v, ok := l.BestMove(b)
	if !ok {
		t.Fatal("BestMove reported terminal")
	}
	if v != l.Value(b) {
		t.Errorf("best move value %d != position value %d", v, l.Value(b))
	}
	if pit < 0 || pit >= awari.RowSize {
		t.Errorf("best move pit %d out of range", pit)
	}
	// Terminal: mover's row empty.
	if _, _, ok := l.BestMove(board(0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0)); ok {
		t.Error("BestMove on terminal position reported ok")
	}
}

// TestBestMoveConsistent checks BestMove's value equals the database value
// for every non-terminal 5-stone position.
func TestBestMoveConsistent(t *testing.T) {
	l := buildStandard(t, 5)
	slice := l.Slice(5)
	for idx := uint64(0); idx < slice.Size(); idx++ {
		b := slice.Board(idx)
		_, v, ok := l.BestMove(b)
		if !ok {
			continue
		}
		want := l.Lookup(5, idx)
		if l.Result(5).IsLoop(idx) {
			// Loop positions may value staying in the cycle above any move.
			if slice.Better(v, want) {
				t.Fatalf("loop position %d: best move %d beats database value %d", idx, v, want)
			}
			continue
		}
		if v != want {
			t.Fatalf("position %d: best move value %d, database %d", idx, v, want)
		}
	}
}

// TestLoopPositionsExist confirms that awari really has cyclic positions
// (otherwise the loop-rule machinery would be untested dead code).
func TestLoopPositionsExist(t *testing.T) {
	l := buildStandard(t, 6)
	total := uint64(0)
	for n := 0; n <= 6; n++ {
		total += l.Result(n).LoopPositions
	}
	if total == 0 {
		t.Error("no loop positions found in rungs 0..6")
	}
}

// TestLoopRulesDiffer confirms the loop rule actually changes values
// somewhere, i.e. it is not dead configuration.
func TestLoopRulesDiffer(t *testing.T) {
	own, err := Build(Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 5, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Build(Config{Rules: awari.Standard, Loop: awari.LoopZero}, 5, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for n := 0; n <= 5 && !differ; n++ {
		a, b := own.Result(n).Values, zero.Result(n).Values
		for i := range a {
			if a[i] != b[i] {
				differ = true
				break
			}
		}
	}
	if !differ {
		t.Error("LoopOwnSide and LoopZero produced identical databases on rungs 0..5")
	}
}

func TestOnRungCallback(t *testing.T) {
	var rungs []int
	_, err := Build(Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 3, ra.Sequential{},
		func(stones int, r *ra.Result) { rungs = append(rungs, stones) })
	if err != nil {
		t.Fatal(err)
	}
	if len(rungs) != 4 || rungs[0] != 0 || rungs[3] != 3 {
		t.Errorf("callback rungs = %v", rungs)
	}
}
