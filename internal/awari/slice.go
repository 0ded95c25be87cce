package awari

import (
	"fmt"

	"retrograde/internal/game"
	"retrograde/internal/index"
)

// spaces caches the position codec for every stone total. Immutable after
// package initialisation.
var spaces = func() [MaxStones + 1]*index.Space {
	var s [MaxStones + 1]*index.Space
	for n := 0; n <= MaxStones; n++ {
		s[n] = index.MustSpace(Pits, n)
	}
	return s
}()

// Space returns the position codec for boards holding exactly stones stones.
func Space(stones int) *index.Space {
	if stones < 0 || stones > MaxStones {
		panic(fmt.Sprintf("awari: no space for %d stones", stones))
	}
	return spaces[stones]
}

// Size returns the number of positions in the n-stone database, C(n+11, 11).
func Size(stones int) uint64 { return Space(stones).Size() }

// LoopRule selects the value assigned to positions that retrograde
// analysis never determines (positions inside cycles of non-capturing
// moves, where the game can continue forever). The exact 1995 convention
// is not recoverable from the paper's abstract; see DESIGN.md.
type LoopRule uint8

// Loop-scoring conventions.
const (
	// LoopOwnSide scores eternal play by each player capturing the stones
	// on his own side (the convention of the awari-database literature).
	LoopOwnSide LoopRule = iota
	// LoopEvenSplit scores eternal play as an even split (floor(n/2)).
	LoopEvenSplit
	// LoopZero scores eternal play as zero for the player to move.
	LoopZero
)

func (lr LoopRule) String() string {
	switch lr {
	case LoopOwnSide:
		return "own-side"
	case LoopEvenSplit:
		return "even-split"
	case LoopZero:
		return "zero"
	}
	return fmt.Sprintf("LoopRule(%d)", uint8(lr))
}

// Lookup resolves a position in an already-built smaller database: it
// returns the database value (stones captured by the player to move) of
// position idx of the stones-stone database. Any random-access backing
// works — in-memory result slices, packed db.Table files, or
// block-compressed zdb tables served through their Get methods.
type Lookup func(stones int, idx uint64) game.Value

// Slice is the n-stone awari database slice as a game.Game. It is
// immutable and safe for concurrent use.
type Slice struct {
	rules  Rules
	loop   LoopRule
	stones int
	space  *index.Space
	lookup Lookup
}

// NewSlice returns the n-stone slice. lookup resolves captures into
// smaller databases; it may be nil only for stones <= 1, where no capture
// is possible (a capture needs at least 2 stones in the landing pit).
func NewSlice(rules Rules, loop LoopRule, stones int, lookup Lookup) (*Slice, error) {
	if stones < 0 || stones > MaxStones {
		return nil, fmt.Errorf("awari: stones %d out of range [0, %d]", stones, MaxStones)
	}
	if lookup == nil && stones > 1 {
		return nil, fmt.Errorf("awari: %d-stone slice needs a lookup for smaller databases", stones)
	}
	return &Slice{
		rules:  rules,
		loop:   loop,
		stones: stones,
		space:  spaces[stones],
		lookup: lookup,
	}, nil
}

// MustSlice is NewSlice for statically known-valid arguments.
func MustSlice(rules Rules, loop LoopRule, stones int, lookup Lookup) *Slice {
	s, err := NewSlice(rules, loop, stones, lookup)
	if err != nil {
		panic(err)
	}
	return s
}

// Stones returns the slice's stone total.
func (s *Slice) Stones() int { return s.stones }

// Rules returns the rule set the slice was built with.
func (s *Slice) Rules() Rules { return s.rules }

// Name implements game.Game.
func (s *Slice) Name() string { return fmt.Sprintf("awari-%d", s.stones) }

// Size implements game.Game.
func (s *Slice) Size() uint64 { return s.space.Size() }

// Board decodes a position index into a Board.
func (s *Slice) Board(idx uint64) Board {
	var pits [Pits]int
	s.space.Unrank(idx, pits[:])
	var b Board
	for i, c := range pits {
		b[i] = int8(c)
	}
	return b
}

// Index encodes a Board (which must hold exactly the slice's stone total)
// into its position index.
func (s *Slice) Index(b Board) uint64 {
	var pits [Pits]int
	for i, c := range b {
		pits[i] = int(c)
	}
	return s.space.Rank(pits[:])
}

// Moves implements game.Game. Non-capturing moves are internal; capturing
// moves are resolved against the smaller database via the lookup:
// capturing c stones and leaving the opponent a position worth v means the
// mover eventually gets c + (n-c-v) = n-v stones.
func (s *Slice) Moves(idx uint64, buf []game.Move) []game.Move {
	b := s.Board(idx)
	var list [RowSize]int
	moves := s.rules.MoveList(b, list[:0])
	for _, from := range moves {
		child, captured := s.rules.Apply(b, from)
		if captured == 0 {
			buf = append(buf, game.Move{Internal: true, Child: s.Index(child)})
			continue
		}
		rest := s.stones - captured
		v := s.lookup(rest, Rank(child))
		buf = append(buf, game.Move{Value: game.Value(s.stones) - v})
	}
	return buf
}

// Rank returns the board's position index within the space of its stone
// count: Space(b.Stones()).Rank of the pit counts.
func Rank(b Board) uint64 {
	var pits [Pits]int
	for i, c := range b {
		pits[i] = int(c)
	}
	return Space(b.Stones()).Rank(pits[:])
}

// BestMove returns the best move of b under rules and its value for the
// mover, resolving children through lookup (which must cover rungs
// 0..b.Stones()). ok is false for positions without a legal move.
func BestMove(rules Rules, b Board, lookup Lookup) (pit int, value game.Value, ok bool) {
	var list [RowSize]int
	moves := rules.MoveList(b, list[:0])
	if len(moves) == 0 {
		return 0, 0, false
	}
	n := b.Stones()
	best := game.NoValue
	bestPit := -1
	for _, from := range moves {
		child, captured := rules.Apply(b, from)
		mv := game.Value(n) - lookup(n-captured, Rank(child))
		if best == game.NoValue || mv > best {
			best, bestPit = mv, from
		}
	}
	return bestPit, best, true
}

// TerminalValue implements game.Game.
func (s *Slice) TerminalValue(idx uint64) game.Value {
	return game.Value(s.rules.TerminalCapture(s.Board(idx)))
}

// MoverValue implements game.Game: moving to an in-database child worth v
// to the opponent leaves the mover the remaining n-v stones.
func (s *Slice) MoverValue(child game.Value) game.Value {
	return game.Value(s.stones) - child
}

// Better implements game.Game: more captured stones is better.
func (s *Slice) Better(a, b game.Value) bool {
	if b == game.NoValue {
		return a != game.NoValue
	}
	return a != game.NoValue && a > b
}

// Finalizes implements game.Game: capturing every stone cannot be improved.
func (s *Slice) Finalizes(v game.Value) bool { return int(v) == s.stones }

// LoopValue implements game.Game.
func (s *Slice) LoopValue(idx uint64) game.Value {
	switch s.loop {
	case LoopEvenSplit:
		return game.Value(s.stones / 2)
	case LoopZero:
		return 0
	default:
		return game.Value(s.Board(idx).OwnStones())
	}
}

// ValueBits implements game.Game: values span [0, n].
func (s *Slice) ValueBits() int {
	bits := 1
	for 1<<bits <= s.stones {
		bits++
	}
	return bits
}

// Predecessors implements game.Game. A predecessor of p is a board q from
// which some legal non-capturing move produces p. Candidates are generated
// by un-sowing (for each origin pit and stone count, subtract the sowing
// pattern) and each candidate is verified with the forward move generator,
// so the predecessor relation is the exact inverse of Moves by
// construction.
func (s *Slice) Predecessors(idx uint64, buf []uint64) []uint64 {
	p := s.Board(idx)
	// r is the post-move board from the previous mover's perspective.
	r := p.Swapped()
	for origin := 0; origin < RowSize; origin++ {
		if r[origin] != 0 {
			// Sowing empties the origin and (captures aside, but a
			// capture would leave the database) nothing refills it.
			continue
		}
		for stones := 1; stones <= s.stones; stones++ {
			q, ok := unsow(r, origin, stones)
			if !ok {
				break // sowing patterns only grow with the stone count
			}
			if !s.rules.Legal(q, origin) {
				continue
			}
			child, captured := s.rules.Apply(q, origin)
			if captured == 0 && child == p {
				buf = append(buf, s.Index(q))
			}
		}
	}
	return buf
}

// unsow reconstructs the board before sowing stones stones from origin,
// given the post-sow board r. It reports false when some pit of r holds
// fewer stones than the sowing pattern would have delivered — and because
// the pattern is monotone in the stone count, larger counts fail too.
func unsow(r Board, origin, stones int) (Board, bool) {
	q := r
	q[origin] = int8(stones)
	for j := 0; j < Pits; j++ {
		if j == origin {
			continue
		}
		// o is j's rank in the sowing order (0 = first pit after origin);
		// the pattern skips the origin, so the cycle length is Pits-1.
		o := (j - origin - 1 + Pits) % Pits
		t := 0
		if stones > o {
			t = (stones - o + Pits - 2) / (Pits - 1)
		}
		q[j] -= int8(t)
		if q[j] < 0 {
			return Board{}, false
		}
	}
	return q, true
}
