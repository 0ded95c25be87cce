package awari

import (
	"testing"
)

func b(pits ...int) Board {
	if len(pits) != Pits {
		panic("test board needs 12 pits")
	}
	var board Board
	for i, c := range pits {
		board[i] = int8(c)
	}
	return board
}

func TestBoardAccessors(t *testing.T) {
	board := b(4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4)
	if board.Stones() != 48 {
		t.Errorf("Stones() = %d, want 48", board.Stones())
	}
	if board.OwnStones() != 24 || board.OppStones() != 24 {
		t.Errorf("rows = %d/%d, want 24/24", board.OwnStones(), board.OppStones())
	}
	asym := b(1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 7)
	if asym.OwnStones() != 6 || asym.OppStones() != 7 {
		t.Errorf("rows = %d/%d, want 6/7", asym.OwnStones(), asym.OppStones())
	}
}

func TestSwappedIsInvolution(t *testing.T) {
	board := b(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	s := board.Swapped()
	want := b(7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6)
	if s != want {
		t.Errorf("Swapped() = %v, want %v", s, want)
	}
	if s.Swapped() != board {
		t.Error("Swapped is not an involution")
	}
}

func TestBoardString(t *testing.T) {
	board := b(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	want := "[12 11 10  9  8  7 /  1  2  3  4  5  6]"
	if got := board.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSowSimple(t *testing.T) {
	r := Standard
	board := b(0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0)
	after, last := r.sow(board, 3)
	want := b(0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0)
	if after != want || last != 6 {
		t.Errorf("sow = %v last %d, want %v last 6", after, last, want)
	}
}

func TestSowWrapsAround(t *testing.T) {
	r := Standard
	board := b(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2)
	// Opponent pits can never be sown by the mover, but sow itself is
	// direction-agnostic; sowing pit 11 wraps into pits 0 and 1.
	after, last := r.sow(board, 11)
	want := b(1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if after != want || last != 1 {
		t.Errorf("sow = %v last %d, want %v last 1", after, last, want)
	}
}

func TestSowSkipsOriginOnFullLap(t *testing.T) {
	r := Standard
	board := b(12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	after, last := r.sow(board, 0)
	// 11 stones fill pits 1..11; the 12th skips pit 0 and lands in pit 1.
	want := b(0, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	if after != want || last != 1 {
		t.Errorf("sow = %v last %d, want %v last 1", after, last, want)
	}
}

func TestSowTwoFullLaps(t *testing.T) {
	r := Standard
	board := b(23, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	after, last := r.sow(board, 0)
	// 23 = 2*11 + 1: every other pit gets 2, pit 1 gets a third.
	want := b(0, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2)
	if after != want || last != 1 {
		t.Errorf("sow = %v last %d, want %v last 1", after, last, want)
	}
}

func TestSowPanics(t *testing.T) {
	r := Standard
	for _, f := range []func(){
		func() { r.sow(b(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0) },  // empty pit
		func() { r.sow(b(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 12) }, // out of range
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

func TestCaptureSingle(t *testing.T) {
	r := Standard
	board := b(0, 0, 0, 0, 0, 2, 1, 5, 0, 0, 0, 0)
	child, captured := r.Apply(board, 5)
	// Sow 2 from pit 5: pit6 -> 2, pit7 -> 6, last = 7, pit7 = 6 not
	// capturable; walk never starts.
	if captured != 0 {
		t.Fatalf("captured = %d, want 0", captured)
	}
	want := b(2, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if child != want {
		t.Errorf("child = %v, want %v", child, want)
	}
}

func TestCaptureChain(t *testing.T) {
	r := Standard
	board := b(0, 0, 0, 0, 0, 2, 1, 2, 4, 0, 0, 0)
	// Sow 2 from pit 5: pit6 = 2, pit7 = 3, last = 7. Chain captures pit7
	// (3) then pit6 (2): 5 stones.
	child, captured := r.Apply(board, 5)
	if captured != 5 {
		t.Fatalf("captured = %d, want 5", captured)
	}
	want := b(0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if child != want {
		t.Errorf("child = %v, want %v", child, want)
	}
}

func TestCaptureChainStopsAtNonCapturablePit(t *testing.T) {
	r := Standard
	board := b(0, 0, 0, 0, 0, 3, 4, 1, 2, 0, 0, 0)
	// Sow 3 from pit 5: pit6 = 5, pit7 = 2, pit8 = 3, last = 8. Captures
	// pit8 (3) and pit7 (2); pit6 holds 5, chain stops.
	child, captured := r.Apply(board, 5)
	if captured != 5 {
		t.Fatalf("captured = %d, want 5", captured)
	}
	want := b(5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if child != want {
		t.Errorf("child = %v, want %v", child, want)
	}
}

func TestNoCaptureInOwnRow(t *testing.T) {
	r := Standard
	board := b(2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)
	// Sow 2 from pit 0: pit1 = 2, pit2 = 1, last = 2 in own row: no capture
	// even though pit1 holds 2.
	_, captured := r.Apply(board, 0)
	if captured != 0 {
		t.Errorf("captured = %d, want 0 (own row is never captured)", captured)
	}
}

func TestCaptureChainStopsAtRowBoundary(t *testing.T) {
	r := Standard
	// Landing in pit 6 with 2: the walk must not continue into the
	// mover's own row (pit 5 holds 2 as well after sowing... it does not,
	// pit 5 was the origin).
	board := b(0, 0, 0, 0, 2, 1, 1, 0, 0, 0, 0, 0)
	// Sow 1 from pit 5: pit6 = 2, last = 6, capture 2; walk stops at row
	// boundary.
	child, captured := r.Apply(board, 5)
	if captured != 2 {
		t.Fatalf("captured = %d, want 2", captured)
	}
	want := b(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0)
	if child != want {
		t.Errorf("child = %v, want %v", child, want)
	}
}

func TestGrandSlamAllowedVsForfeit(t *testing.T) {
	// Opponent's only stone sits in pit 6; sowing 1 from pit 5 makes it 2
	// and captures the opponent's entire row.
	board := b(0, 0, 0, 0, 3, 1, 1, 0, 0, 0, 0, 0)

	child, captured := Standard.Apply(board, 5)
	if captured != 2 {
		t.Fatalf("awari rules: captured = %d, want 2", captured)
	}
	if child != b(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0) {
		t.Errorf("awari rules: child = %v", child)
	}

	oware := Rules{GrandSlam: GrandSlamForfeit}
	child, captured = oware.Apply(board, 5)
	if captured != 0 {
		t.Fatalf("oware rules: captured = %d, want 0 (grand slam forfeited)", captured)
	}
	if child != b(2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0) {
		t.Errorf("oware rules: child = %v", child)
	}
}

func TestGrandSlamForfeitOnlyWhenRowEmptied(t *testing.T) {
	oware := Rules{GrandSlam: GrandSlamForfeit}
	// Opponent keeps a stone in pit 11, so the capture stands.
	board := b(0, 0, 0, 0, 3, 1, 1, 0, 0, 0, 0, 5)
	_, captured := oware.Apply(board, 5)
	if captured != 2 {
		t.Errorf("captured = %d, want 2 (row not emptied)", captured)
	}
}

func TestParseGrandSlam(t *testing.T) {
	for _, tc := range []struct {
		name string
		want GrandSlamRule
		ok   bool
	}{
		{"allowed", GrandSlamAllowed, true},
		{"forfeit", GrandSlamForfeit, true},
		{"forfiet", 0, false},
		{"Forfeit", 0, false},
		{"", 0, false},
	} {
		got, err := ParseGrandSlam(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseGrandSlam(%q) = %v, %v; want %v, ok %v", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

func TestMoveListBasic(t *testing.T) {
	r := Standard
	board := b(1, 0, 2, 0, 0, 3, 1, 1, 1, 1, 1, 1)
	got := r.MoveList(board, nil)
	want := []int{0, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("MoveList = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MoveList = %v, want %v", got, want)
		}
	}
}

func TestMoveListFeedingObligation(t *testing.T) {
	r := Standard
	// Opponent starved. Pit 5 (1 stone) feeds; pit 0 (1 stone) does not.
	board := b(1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
	got := r.MoveList(board, nil)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("MoveList = %v, want [5]", got)
	}
	if r.Legal(board, 0) {
		t.Error("non-feeding move reported legal while a feeding move exists")
	}
	if !r.Legal(board, 5) {
		t.Error("feeding move reported illegal")
	}

	// Without the obligation both moves are legal.
	free := Rules{NoFeedObligation: true}
	if got := free.MoveList(board, nil); len(got) != 2 {
		t.Errorf("NoFeedObligation MoveList = %v, want two moves", got)
	}
}

func TestMoveListNoFeedingMovePossible(t *testing.T) {
	r := Standard
	// Opponent starved and no move reaches his row: terminal.
	board := b(2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if got := r.MoveList(board, nil); len(got) != 0 {
		t.Fatalf("MoveList = %v, want empty (terminal)", got)
	}
	if r.Legal(board, 0) {
		t.Error("Legal(0) = true in a terminal starved position")
	}
	if got := r.TerminalCapture(board); got != 2 {
		t.Errorf("TerminalCapture = %d, want 2 (mover takes his own stones)", got)
	}
}

func TestFeedingCountsPostCaptureStones(t *testing.T) {
	// Opponent starved; sowing 17 stones from pit 5 drops two stones into
	// every opponent pit (landing in pit 11) and the grand-slam chain
	// captures all of them back. Under awari rules the move therefore
	// does not feed and the position is terminal; under oware rules the
	// grand slam is forfeited, the opponent keeps 12 stones, and the move
	// is a legal feeding move.
	board := b(0, 0, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0)
	if got := Standard.MoveList(board, nil); len(got) != 0 {
		t.Fatalf("awari MoveList = %v, want empty", got)
	}
	if got := Standard.TerminalCapture(board); got != 17 {
		t.Errorf("TerminalCapture = %d, want 17", got)
	}
	oware := Rules{GrandSlam: GrandSlamForfeit}
	if got := oware.MoveList(board, nil); len(got) != 1 || got[0] != 5 {
		t.Fatalf("oware MoveList = %v, want [5]", got)
	}
}

func TestTerminalCaptureEmptyOwnRow(t *testing.T) {
	r := Standard
	board := b(0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 3)
	if got := r.MoveList(board, nil); len(got) != 0 {
		t.Fatalf("MoveList = %v, want empty", got)
	}
	if got := r.TerminalCapture(board); got != 0 {
		t.Errorf("TerminalCapture = %d, want 0 (opponent keeps the board)", got)
	}
}

func TestApplyPanicsOnOpponentPit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Apply on opponent pit did not panic")
		}
	}()
	Standard.Apply(b(0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), 6)
}

func TestStonesConservation(t *testing.T) {
	r := Standard
	// Across every legal move of every board of the 6-stone space, stones
	// on the child board plus captured stones equal the original total,
	// and the capture count is never 1 (captures take pits of 2 or 3).
	space := Space(6)
	var pits [Pits]int
	var moves [RowSize]int
	for idx := uint64(0); idx < space.Size(); idx++ {
		space.Unrank(idx, pits[:])
		var board Board
		for i, c := range pits {
			board[i] = int8(c)
		}
		for _, from := range r.MoveList(board, moves[:0]) {
			child, captured := r.Apply(board, from)
			if child.Stones()+captured != 6 {
				t.Fatalf("board %v move %d: %d stones + %d captured != 6", board, from, child.Stones(), captured)
			}
			if captured == 1 {
				t.Fatalf("board %v move %d: captured exactly 1 stone", board, from)
			}
			if captured < 0 || captured > 6 {
				t.Fatalf("board %v move %d: captured %d out of range", board, from, captured)
			}
		}
	}
}

func TestParseBoard(t *testing.T) {
	b, err := ParseBoard("1,2,3,0,0,0, 0,0,0,0,0,6")
	if err != nil {
		t.Fatal(err)
	}
	if b.Stones() != 12 || b[0] != 1 || b[11] != 6 {
		t.Errorf("parsed %v", b)
	}
	bad := []string{
		"1,2,3",                     // too few
		"1,2,3,0,0,0,0,0,0,0,0,x",   // not a number
		"-1,0,0,0,0,0,0,0,0,0,0,0",  // negative
		"49,0,0,0,0,0,0,0,0,0,0,0",  // pit overflow
		"25,25,0,0,0,0,0,0,0,0,0,0", // total overflow
	}
	for _, s := range bad {
		if _, err := ParseBoard(s); err == nil {
			t.Errorf("ParseBoard(%q) succeeded", s)
		}
	}
}
