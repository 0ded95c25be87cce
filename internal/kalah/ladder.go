package kalah

import (
	"fmt"

	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// Ladder holds finished Kalah databases for stone totals 0..MaxStones(),
// built bottom-up like awari's (rung n consults rungs below through
// banking moves).
type Ladder struct {
	results []*ra.Result
}

// BuildLadder constructs Kalah databases for totals 0..maxStones with the
// engine. onRung, if non-nil, observes progress. Unlike awari's ladder,
// the rungs are solved strictly one after another: banking a single stone
// moves play into rung n-1, so no rung can start before the one below it
// is finished.
func BuildLadder(maxStones int, engine ra.Engine, onRung func(stones int, r *ra.Result)) (*Ladder, error) {
	if maxStones < 0 || maxStones > MaxStones {
		return nil, fmt.Errorf("kalah: maxStones %d out of range [0, %d]", maxStones, MaxStones)
	}
	l := &Ladder{results: make([]*ra.Result, 0, maxStones+1)}
	for n := 0; n <= maxStones; n++ {
		slice, err := NewSlice(n, l.lookupOrNil(n))
		if err != nil {
			return nil, err
		}
		r, err := engine.Solve(slice)
		if err != nil {
			return nil, fmt.Errorf("kalah: rung %d: %w", n, err)
		}
		l.results = append(l.results, r)
		if onRung != nil {
			onRung(n, r)
		}
	}
	return l, nil
}

// lookupOrNil is the lower-rung lookup rung n is wired to: nil for rung
// 0, which has no lower rung.
func (l *Ladder) lookupOrNil(n int) Lookup {
	if n == 0 {
		return nil
	}
	return l.Lookup
}

// MaxStones returns the largest finished rung, or -1 for an empty ladder.
func (l *Ladder) MaxStones() int { return len(l.results) - 1 }

// Lookup returns the database value of position idx of the stones-stone
// rung; it satisfies Lookup.
func (l *Ladder) Lookup(stones int, idx uint64) game.Value {
	return l.results[stones].Values[idx]
}

// Result returns the finished analysis of one rung.
func (l *Ladder) Result(stones int) *ra.Result { return l.results[stones] }

// Slice returns the game.Game view of one rung, wired to the ladder.
func (l *Ladder) Slice(stones int) *Slice {
	return MustSlice(stones, l.lookupOrNil(stones))
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
	n := b.Stones()
	slice := l.Slice(n)
	best := game.NoValue
	bestPit := -1
	for from := 0; from < RowSize; from++ {
		if b[from] == 0 {
			continue
		}
		v := l.moveValue(slice, b, from, 0)
		if v == game.NoValue {
			continue
		}
		if best == game.NoValue || v > best {
			best, bestPit = v, from
		}
	}
	if bestPit < 0 {
		return 0, 0, false
	}
	return bestPit, best, true
}

// PlayBest applies the best composed move to b and returns the successor
// position (next mover's perspective) and the stones the move banked.
// ok is false for terminal positions. When the move ends the game (extra
// turn with an emptied row), next is the empty board.
func (l *Ladder) PlayBest(b Board) (next Board, banked int, ok bool) {
	n := b.Stones()
	slice := l.Slice(n)
	best := game.NoValue
	for from := 0; from < RowSize; from++ {
		if b[from] == 0 {
			continue
		}
		v := l.moveValue(slice, b, from, 0)
		if best == game.NoValue || v > best {
			nb, bk := l.playMove(slice, b, from, 0)
			best, next, banked, ok = v, nb, bk, true
		}
	}
	return next, banked, ok
}

// playMove replays the best completion of a move starting at pit from,
// returning the successor board (swapped) and stones banked.
func (l *Ladder) playMove(slice *Slice, b Board, from, banked int) (Board, int) {
	r := sow(b, from)
	total := banked + r.banked
	if r.again {
		if r.board.OwnStones() == 0 {
			return Board{}, total
		}
		bestV := game.NoValue
		bestPit := -1
		for next := 0; next < RowSize; next++ {
			if r.board[next] == 0 {
				continue
			}
			if v := l.moveValue(slice, r.board, next, total); bestV == game.NoValue || v > bestV {
				bestV, bestPit = v, next
			}
		}
		return l.playMove(slice, r.board, bestPit, total)
	}
	return r.board.Swapped(), total
}

// moveValue evaluates the best completion of a move starting with a sow
// from pit `from` on board b, with banked stones already in the store.
func (l *Ladder) moveValue(slice *Slice, b Board, from, banked int) game.Value {
	r := sow(b, from)
	total := banked + r.banked
	if r.again {
		if r.board.OwnStones() == 0 {
			return game.Value(total)
		}
		best := game.NoValue
		for next := 0; next < RowSize; next++ {
			if r.board[next] == 0 {
				continue
			}
			if v := l.moveValue(slice, r.board, next, total); best == game.NoValue || v > best {
				best = v
			}
		}
		return best
	}
	child := r.board.Swapped()
	rest := slice.Stones() - total
	childSlice := l.Slice(rest)
	return game.Value(slice.Stones()) - l.Lookup(rest, childSlice.Index(child))
}
