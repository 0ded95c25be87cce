package kalah

import (
	"sync/atomic"
	"testing"
	"time"

	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
)

func b(pits ...int) Board {
	var board Board
	for i, c := range pits {
		board[i] = int8(c)
	}
	return board
}

// buildLadder builds Kalah databases 0..maxStones with the given engine.
func buildLadder(t *testing.T, maxStones int, engine ra.Engine) []*ra.Result {
	t.Helper()
	results := make([]*ra.Result, maxStones+1)
	lookup := func(stones int, idx uint64) game.Value { return results[stones].Values[idx] }
	for n := 0; n <= maxStones; n++ {
		r, err := engine.Solve(MustSliceForTest(n, lookup))
		if err != nil {
			t.Fatal(err)
		}
		results[n] = r
	}
	return results
}

// MustSliceForTest allows a lookup even at 0 stones for uniformity.
func MustSliceForTest(stones int, lookup Lookup) *Slice {
	if stones == 0 {
		return MustSlice(0, nil)
	}
	return MustSlice(stones, lookup)
}

func TestSowSimple(t *testing.T) {
	// Sow 3 from pit 2: pits 3,4,5 gain one, no store, no capture
	// (landing pit 5 held a stone already).
	r := sow(b(0, 0, 3, 1, 0, 1, 0, 0, 0, 0, 0, 0), 2)
	if r.banked != 0 || r.again {
		t.Fatalf("result %+v", r)
	}
	if r.board != b(0, 0, 0, 2, 1, 2, 0, 0, 0, 0, 0, 0) {
		t.Errorf("board %v", r.board)
	}
}

func TestSowIntoStoreGrantsExtraTurn(t *testing.T) {
	// Pit 4 holds 2: stones land in pit 5 and the store.
	r := sow(b(0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0), 4)
	if !r.again || r.banked != 1 {
		t.Fatalf("result %+v", r)
	}
	if r.board != b(0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0) {
		t.Errorf("board %v", r.board)
	}
}

func TestSowThroughStoreIntoOpponent(t *testing.T) {
	// Pit 5 holds 3: store, opponent pits 6 and 7.
	r := sow(b(0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0), 5)
	if r.again || r.banked != 1 {
		t.Fatalf("result %+v", r)
	}
	if r.board != b(0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0) {
		t.Errorf("board %v", r.board)
	}
}

func TestSowSkipsOpponentStore(t *testing.T) {
	// Pit 5 holds 8: store (1 banked), opponent pits 6..11 (6 stones) —
	// never the opponent's store — then own pit 0. Pit 0 was empty and
	// the opposite pit 11 just received a stone, so the landing also
	// captures: 1 (store) + 1 (landing stone) + 1 (opposite) = 3 banked.
	r := sow(b(0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0), 5)
	if r.banked != 3 {
		t.Fatalf("banked %d, want 3", r.banked)
	}
	if r.board != b(0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0) {
		t.Errorf("board %v", r.board)
	}
	if r.again {
		t.Error("unexpected extra turn")
	}
}

func TestCaptureOnEmptyOwnPit(t *testing.T) {
	// Pit 0 holds 2: lands in pit 2, previously empty, opposite pit 9
	// holds 3: capture 1+3 = 4.
	r := sow(b(2, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0), 0)
	if r.banked != 4 || r.again {
		t.Fatalf("result %+v", r)
	}
	if r.board != b(0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) {
		t.Errorf("board %v", r.board)
	}
}

func TestNoCaptureWhenOppositeEmpty(t *testing.T) {
	r := sow(b(2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 0)
	if r.banked != 0 {
		t.Fatalf("banked %d", r.banked)
	}
	if r.board[2] != 1 {
		t.Errorf("board %v", r.board)
	}
}

func TestNoCaptureWhenLandingPitWasOccupied(t *testing.T) {
	r := sow(b(2, 1, 5, 0, 0, 0, 0, 0, 0, 3, 0, 0), 0)
	if r.banked != 0 {
		t.Fatalf("banked %d, want 0 (pit 2 held stones)", r.banked)
	}
}

func TestMultiLapSow(t *testing.T) {
	// 14 stones from pit 0: one full lap (13 slots) plus one: pit 1 gets
	// two stones, everything else one, store gets one.
	r := sow(b(14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0)
	if r.banked != 1 {
		t.Fatalf("banked %d", r.banked)
	}
	want := b(1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	if r.board != want {
		t.Errorf("board %v, want %v", r.board, want)
	}
	if r.again {
		t.Error("unexpected extra turn")
	}
}

func TestComposedMoveEnumeration(t *testing.T) {
	// Pit 4 holds 2 -> store grants an extra turn, then pit 5 (1 stone)
	// continues. Verify a composed completion exists.
	lookup := func(stones int, idx uint64) game.Value { return 0 }
	s := MustSlice(3, lookup)
	idx := s.Index(b(0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0))
	moves := s.Moves(idx, nil)
	if len(moves) == 0 {
		t.Fatal("no moves")
	}
	// All moves from this board bank at least one stone (every sow from
	// pits 4/5 reaches the store), so none is internal.
	for _, m := range moves {
		if m.Internal {
			t.Errorf("unexpected internal move %+v", m)
		}
	}
}

func TestExtraTurnWithEmptiedRowEndsGame(t *testing.T) {
	// Only pit 5 holds 1: it lands in the store, extra turn, but the row
	// is empty: mover banks 1, opponent banks the remaining 2.
	lookup := func(stones int, idx uint64) game.Value { return 99 } // must not be consulted
	s := MustSlice(3, lookup)
	idx := s.Index(b(0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0))
	moves := s.Moves(idx, nil)
	if len(moves) != 1 {
		t.Fatalf("moves %+v", moves)
	}
	if moves[0].Internal || moves[0].Value != 1 {
		t.Errorf("move %+v, want resolved value 1", moves[0])
	}
}

// TestValidateSlices checks move/un-move inversion exhaustively.
func TestValidateSlices(t *testing.T) {
	lookup := func(stones int, idx uint64) game.Value { return 0 }
	top := 5
	if !testing.Short() {
		top = 6
	}
	for n := 0; n <= top; n++ {
		sl := MustSliceForTest(n, lookup)
		if err := game.Validate(sl); err != nil {
			t.Errorf("kalah-%d: %v", n, err)
		}
	}
}

// TestAcyclic: Kalah databases have no cycle positions.
func TestAcyclic(t *testing.T) {
	results := buildLadder(t, 6, ra.Sequential{})
	for n, r := range results {
		if r.LoopPositions != 0 {
			t.Errorf("kalah-%d: %d loop positions in an acyclic game", n, r.LoopPositions)
		}
	}
}

// TestNegamaxOracle: the internal graph is acyclic, so memoised forward
// negamax is exact — compare every database value against it.
func TestNegamaxOracle(t *testing.T) {
	const maxStones = 6
	results := buildLadder(t, maxStones, ra.Sequential{})
	lookup := func(stones int, idx uint64) game.Value { return results[stones].Values[idx] }
	for n := 1; n <= maxStones; n++ {
		sl := MustSlice(n, lookup)
		memo := make([]game.Value, sl.Size())
		for i := range memo {
			memo[i] = game.NoValue
		}
		var solve func(idx uint64) game.Value
		solve = func(idx uint64) game.Value {
			if memo[idx] != game.NoValue {
				return memo[idx]
			}
			moves := sl.Moves(idx, nil)
			var v game.Value
			if len(moves) == 0 {
				v = sl.TerminalValue(idx)
			} else {
				v = game.NoValue
				for _, m := range moves {
					mv := m.Value
					if m.Internal {
						mv = sl.MoverValue(solve(m.Child))
					}
					if v == game.NoValue || mv > v {
						v = mv
					}
				}
			}
			memo[idx] = v
			return v
		}
		for idx := uint64(0); idx < sl.Size(); idx++ {
			if got, want := results[n].Values[idx], solve(idx); got != want {
				t.Fatalf("kalah-%d position %v: retrograde %d, negamax %d", n, sl.Board(idx), got, want)
			}
		}
	}
}

// TestEnginesAgree: all engines produce bit-identical Kalah databases.
func TestEnginesAgree(t *testing.T) {
	want := buildLadder(t, 5, ra.Sequential{})
	for _, e := range []ra.Engine{
		ra.Concurrent{Workers: 3},
		ra.Distributed{Workers: 4, Combine: 16},
		ra.Distributed{Workers: 4, Async: true},
	} {
		got := buildLadder(t, 5, e)
		for n := range want {
			for i := range want[n].Values {
				if want[n].Values[i] != got[n].Values[i] {
					t.Fatalf("%s kalah-%d: values differ at %d", e.Name(), n, i)
				}
			}
		}
	}
}

// TestAuditLadder: the generic audit accepts every rung.
func TestAuditLadder(t *testing.T) {
	results := buildLadder(t, 5, ra.Sequential{})
	lookup := func(stones int, idx uint64) game.Value { return results[stones].Values[idx] }
	for n := 0; n <= 5; n++ {
		if err := ra.Audit(MustSliceForTest(n, lookup), results[n]); err != nil {
			t.Errorf("kalah-%d: %v", n, err)
		}
	}
}

// TestValueConservation: every value lies in [0, n], and for positions
// whose best move banks everything, Finalizes holds.
func TestValueConservation(t *testing.T) {
	results := buildLadder(t, 6, ra.Sequential{})
	for n, r := range results {
		for idx, v := range r.Values {
			if int(v) > n {
				t.Fatalf("kalah-%d position %d: value %d out of range", n, idx, v)
			}
		}
	}
}

func TestSowPanics(t *testing.T) {
	for _, f := range []func(){
		func() { sow(b(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0) },
		func() { sow(b(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 6) },
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
}

func TestNewSliceValidation(t *testing.T) {
	if _, err := NewSlice(-1, nil); err == nil {
		t.Error("NewSlice(-1) succeeded")
	}
	if _, err := NewSlice(MaxStones+1, nil); err == nil {
		t.Error("NewSlice(49) succeeded")
	}
	if _, err := NewSlice(3, nil); err == nil {
		t.Error("NewSlice(3, nil) succeeded")
	}
}

func TestLadderBuildAndQuery(t *testing.T) {
	l, err := BuildLadder(6, ra.Concurrent{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.MaxStones() != 6 {
		t.Fatalf("MaxStones = %d", l.MaxStones())
	}
	// BestMove's value equals the database value at every non-terminal
	// 6-stone position (kalah is acyclic: every value is achievable).
	sl := l.Slice(6)
	for idx := uint64(0); idx < sl.Size(); idx++ {
		board := sl.Board(idx)
		pit, v, ok := l.BestMove(board)
		if !ok {
			if board.OwnStones() != 0 {
				t.Fatalf("BestMove reported terminal at %v", board)
			}
			continue
		}
		if pit < 0 || pit >= RowSize || board[pit] == 0 {
			t.Fatalf("BestMove pit %d invalid at %v", pit, board)
		}
		if v != l.Value(board) {
			t.Fatalf("position %v: best move worth %d, database %d", board, v, l.Value(board))
		}
	}
}

func TestBuildLadderValidation(t *testing.T) {
	if _, err := BuildLadder(-1, ra.Sequential{}, nil); err == nil {
		t.Error("BuildLadder(-1) succeeded")
	}
	if _, err := BuildLadder(MaxStones+1, ra.Sequential{}, nil); err == nil {
		t.Error("BuildLadder(49) succeeded")
	}
}

// TestLadderOneRungInFlight: Kalah's reach is one stone, so even under a
// reentrant engine, which takes two awari rungs at once, the ladder never
// has two rungs in flight. A rung counts as in flight from its
// construction, just before its Solve, until it is reported; the
// constructor sleeps to widen the window in which a second rung would be
// seen.
func TestLadderOneRungInFlight(t *testing.T) {
	l := new(Ladder)
	f := l.family()
	var inFlight, maxSeen atomic.Int32
	rung := f.Rung
	f.Rung = func(n int) (game.Game, error) {
		m := inFlight.Add(1)
		for {
			if seen := maxSeen.Load(); m <= seen || maxSeen.CompareAndSwap(seen, m) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return rung(n)
	}
	if err := ladder.BuildRungs(&l.Rungs, f, 8, ra.Sequential{}, func(int, *ra.Result) { inFlight.Add(-1) }); err != nil {
		t.Fatal(err)
	}
	if m := maxSeen.Load(); m != 1 {
		t.Errorf("%d Kalah rungs in flight at once under %s, want 1", m, ra.Sequential{}.Name())
	}
}

// TestPlayBestRealisesValue: the move PlayBest plays is worth the
// database value. Either it ends the game, and the mover's value is what
// it banked, or the mover banks n minus what the opponent banks from the
// position it leaves.
func TestPlayBestRealisesValue(t *testing.T) {
	l, err := BuildLadder(6, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 6; n++ {
		sl := l.Slice(n)
		for idx := range sl.Size() {
			board := sl.Board(idx)
			next, banked, ok := l.PlayBest(board)
			if board.OwnStones() == 0 {
				if ok {
					t.Fatalf("PlayBest moved from terminal %v", board)
				}
				continue
			}
			if !ok {
				t.Fatalf("PlayBest reported terminal at %v", board)
			}
			want := game.Value(n) - l.Value(next)
			if next == (Board{}) {
				want = game.Value(banked)
			} else if next.Stones()+banked != n {
				t.Fatalf("%v: next %v holds %d stones after banking %d of %d", board, next, next.Stones(), banked, n)
			}
			if v := l.Value(board); v != want {
				t.Fatalf("%v: PlayBest banks %d and leaves %v, worth %d; database %d", board, banked, next, want, v)
			}
		}
	}
}
