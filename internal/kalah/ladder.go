package kalah

import (
	"fmt"

	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
)

// bankReach is Kalah's reach: a move that leaves the rung banks at least
// one stone, so rung n reads rung n-1 and no two rungs are in flight.
const bankReach = 1

// Ladder holds finished Kalah databases for stone totals 0..MaxStones(),
// built bottom-up by the one ladder builder (rung n consults the rungs
// below through banking moves).
type Ladder struct {
	ladder.Rungs
}

// BuildLadder constructs Kalah databases for totals 0..maxStones with the
// engine. onRung, if non-nil, observes progress in rung order. Banking a
// single stone moves play into rung n-1, so the rungs are solved strictly
// one after another.
func BuildLadder(maxStones int, engine ra.Engine, onRung func(stones int, r *ra.Result)) (*Ladder, error) {
	if maxStones < 0 || maxStones > MaxStones {
		return nil, fmt.Errorf("kalah: maxStones %d out of range [0, %d]", maxStones, MaxStones)
	}
	l := new(Ladder)
	if err := ladder.BuildRungs(&l.Rungs, l.family(), maxStones, engine, onRung); err != nil {
		return nil, err
	}
	return l, nil
}

// family is Kalah's rung family: its reach and its rung constructor.
func (l *Ladder) family() ladder.Family {
	return ladder.Family{Reach: bankReach, Rung: func(n int) (game.Game, error) {
		return NewSlice(n, l.Lookup)
	}}
}

// Slice returns the game.Game view of one rung, wired to the ladder.
func (l *Ladder) Slice(stones int) *Slice {
	return MustSlice(stones, l.Lookup)
}

// Value returns the database value of a board.
func (l *Ladder) Value(b Board) game.Value {
	n := b.Stones()
	if n > l.MaxStones() {
		panic(fmt.Sprintf("kalah: board has %d stones, ladder only reaches %d", n, l.MaxStones()))
	}
	return l.Lookup(n, l.Slice(n).Index(b))
}

// BestMove returns the best move (starting pit of the composed move) and
// its value; ok is false for terminal positions. For composed moves only
// the first sow's pit is reported.
func (l *Ladder) BestMove(b Board) (pit int, value game.Value, ok bool) {
	pit, value, _, _ = l.best(b, 0)
	if pit < 0 {
		return 0, 0, false
	}
	return pit, value, true
}

// PlayBest applies the best composed move to b and returns the successor
// position (next mover's perspective) and the stones the move banked.
// ok is false for terminal positions. When the move ends the game (extra
// turn with an emptied row), next is the empty board.
func (l *Ladder) PlayBest(b Board) (next Board, banked int, ok bool) {
	pit, _, next, banked := l.best(b, 0)
	return next, banked, pit >= 0
}

// best evaluates every completion of a move on board b, with banked
// stones already in the store, and returns the best one: the pit its
// first sow starts from (-1 when b's row is empty), its value, the
// position it leaves (next mover's perspective; the empty board when the
// move ends the game) and the stones it banks in all. Ties go to the
// lowest pit.
func (l *Ladder) best(b Board, banked int) (pit int, value game.Value, next Board, total int) {
	n := b.Stones() + banked
	pit = -1
	for from := 0; from < RowSize; from++ {
		if b[from] == 0 {
			continue
		}
		r := sow(b, from)
		t := banked + r.banked
		var v game.Value
		var nb Board
		switch {
		case !r.again:
			nb = r.board.Swapped()
			v = game.Value(n) - l.Value(nb)
		case r.board.OwnStones() == 0:
			v = game.Value(t) // the game ends; the opponent banks the rest
		default:
			_, v, nb, t = l.best(r.board, t)
		}
		if pit < 0 || v > value {
			pit, value, next, total = from, v, nb, t
		}
	}
	return pit, value, next, total
}
