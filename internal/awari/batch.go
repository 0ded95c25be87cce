package awari

import (
	"retrograde/internal/game"
	"retrograde/internal/index"
)

// This file implements the run-batched generators every worker walks
// under either kernel (game.BatchIniter, game.BatchExpander,
// game.BatchLooper) and the lane contract of the bit-parallel kernel
// (game.LaneGame). The scalar methods decode every position from scratch
// (Unrank), rank every child — including internal children whose index the
// init phase never needs — and verify every predecessor candidate with a
// full forward Apply. The batched path amortises all of that over a run of
// sibling positions (same stone count, adjacent ranks):
//
//   - boards are decoded once per run and advanced with the O(1) colex
//     successor rule instead of Unrank per position;
//   - the board-reversal view r = p.Swapped() that predecessor generation
//     works on is maintained alongside, so the expanded state per position
//     is half of what decode-then-swap would touch;
//   - sowing is a precomputed 12-byte pattern add (sowPat) instead of a
//     stone-by-stone loop, and the landing pit and the pattern's
//     opponent-row mass come from tables (lastPit, patOppSum);
//   - predecessor candidates are verified arithmetically (capture test on
//     the already-known post-sow board, feeding legality from row sums)
//     instead of replaying the move;
//   - only boards that actually leave the slice (captures) or enter it
//     (predecessors) are ranked, through a flat local binomial table.
//
// Every generator is semantically identical to its scalar counterpart;
// game.Validate cross-checks them position by position, and the engines
// produce bit-identical databases from either.

// binoms is a flat copy of the binomial table covering rank computations
// for up to MaxStones stones over Pits pits: binoms[n][k] = C(n, k).
var binoms = func() [MaxStones + Pits][Pits]uint64 {
	var t [MaxStones + Pits][Pits]uint64
	for n := range t {
		for k := range t[n] {
			t[n][k] = index.Binomial(n, k)
		}
	}
	return t
}()

// Sowing tables, indexed [origin][stones]. sowPat is the delivery count
// per pit (zero at the origin, which sowing skips); lastPit is the pit
// receiving the final stone; patOppSum is the pattern's total delivery
// into the opponent's row (pits 6..11).
var sowPat [RowSize][MaxStones + 1][Pits]int8
var lastPit [RowSize][MaxStones + 1]int8
var patOppSum [RowSize][MaxStones + 1]int8

func init() {
	for o := 0; o < RowSize; o++ {
		for s := 1; s <= MaxStones; s++ {
			pit := o
			last := o
			var pat [Pits]int8
			for i := 0; i < s; i++ {
				pit = (pit + 1) % Pits
				if pit == o {
					pit = (pit + 1) % Pits
				}
				pat[pit]++
				last = pit
			}
			sowPat[o][s] = pat
			lastPit[o][s] = int8(last)
			opp := int8(0)
			for j := RowSize; j < Pits; j++ {
				opp += pat[j]
			}
			patOppSum[o][s] = opp
		}
	}
}

// rankBoard ranks a board holding exactly stones stones, as
// Space(stones).Rank but through the flat table and without validation —
// callers construct boards whose pit sum is correct by arithmetic.
func rankBoard(b *Board, stones int) uint64 {
	var r uint64
	rem := stones
	for i := Pits - 1; i >= 1; i-- {
		if rem == 0 {
			break
		}
		c := int(b[i])
		r += binoms[rem+i][i] - binoms[rem-c+i][i]
		rem -= c
	}
	return r
}

// nextBoard advances b to the colex successor in its stone-count space:
// rank(nextBoard(b)) == rank(b) + 1. Callers never step past the last
// composition (all stones in pit 11).
func nextBoard(b *Board) {
	if b[0] > 0 {
		b[0]--
		b[1]++
		return
	}
	for j := 1; ; j++ {
		if b[j] > 0 {
			b[0] = b[j] - 1
			b[j] = 0
			b[j+1]++
			return
		}
	}
}

// Lanes implements game.LaneGame: awari's value algebra is a total numeric
// order on [0, stones] with the affine negamax v -> stones-v, early cutoff
// at a full capture, and at most RowSize internal successors. Kernel
// eligibility (values narrow enough for a lane) is decided by package ra;
// the contract itself holds for every stone count.
func (s *Slice) Lanes() (game.LaneSpec, bool) {
	return game.LaneSpec{
		Neg:         game.Value(s.stones),
		FinalizeAt:  s.stones,
		MaxInternal: RowSize,
	}, true
}

// InitRun implements game.BatchIniter. Unlike the scalar Moves path it
// never ranks internal children — the init phase only needs their count —
// so the only rank per move is for captures resolving into a smaller
// database.
func (s *Slice) InitRun(base uint64, n int, out []game.InitStat) {
	b := s.Board(base)
	for i := 0; i < n; i++ {
		if i > 0 {
			nextBoard(&b)
		}
		out[i] = s.initStat(&b)
	}
}

// initStat computes one position's init summary: legal-move count,
// internal-successor count, and the best resolved (capturing or terminal)
// value.
func (s *Slice) initStat(b *Board) game.InitStat {
	opp := 0
	for j := RowSize; j < Pits; j++ {
		opp += int(b[j])
	}
	starved := !s.rules.NoFeedObligation && opp == 0
	stat := game.InitStat{Best: game.NoValue}
	for from := 0; from < RowSize; from++ {
		st := int(b[from])
		if st == 0 {
			continue
		}
		pat := &sowPat[from][st]
		last := int(lastPit[from][st])
		var r Board
		for j := 0; j < Pits; j++ {
			r[j] = b[j] + pat[j]
		}
		r[from] = 0
		captured := 0
		end := last
		if last >= RowSize && (r[last] == 2 || r[last] == 3) {
			for end >= RowSize && (r[end] == 2 || r[end] == 3) {
				end--
			}
			for j := end + 1; j <= last; j++ {
				captured += int(r[j])
			}
			if s.rules.GrandSlam == GrandSlamForfeit && opp+int(patOppSum[from][st])-captured == 0 {
				captured = 0 // grand slam forfeited: the move stands, the stones remain
				end = last
			}
		}
		if starved && opp+int(patOppSum[from][st])-captured == 0 {
			continue // does not feed the starved opponent: illegal
		}
		stat.Moves++
		if captured == 0 {
			stat.Internal++
			continue
		}
		// Capture: the move resolves against the smaller database.
		for j := end + 1; j <= last; j++ {
			r[j] = 0
		}
		child := r.Swapped()
		rest := s.stones - captured
		mv := game.Value(s.stones) - s.lookup(rest, rankBoard(&child, rest))
		if stat.Best == game.NoValue || mv > stat.Best {
			stat.Best = mv
		}
	}
	if stat.Moves == 0 {
		// Terminal: a mover with an empty row forfeits the board, a mover
		// who cannot feed a starved opponent captures everything.
		if b.OwnStones() == 0 {
			stat.Best = 0
		} else {
			stat.Best = game.Value(s.stones)
		}
	}
	return stat
}

// PredecessorsRun implements game.BatchExpander. The swapped view r (the
// post-move board from the previous mover's perspective) is maintained
// incrementally across the run, and each un-sow candidate is verified
// arithmetically: the sow is exact by construction, so validity reduces to
// "no capture fires at the landing pit" plus feeding legality from row
// sums — no forward Apply per candidate.
func (s *Slice) PredecessorsRun(base uint64, n int, visit func(i int, preds []uint64)) {
	p := s.Board(base)
	var preds []uint64
	for i := 0; i < n; i++ {
		if i > 0 {
			nextBoard(&p)
		}
		r := p.Swapped()
		// r's opponent row (pits 6..11) is p's own row: its sum decides
		// both capture forfeits and feeding legality below.
		oppR := p.OwnStones()
		preds = preds[:0]
		for origin := 0; origin < RowSize; origin++ {
			if r[origin] != 0 {
				// Sowing empties the origin and (captures aside, but a
				// capture would leave the database) nothing refills it.
				continue
			}
			for st := 1; st <= s.stones; st++ {
				pat := &sowPat[origin][st]
				q := r
				q[origin] = int8(st)
				ok := true
				for j := 0; j < Pits; j++ {
					if q[j] -= pat[j]; q[j] < 0 {
						ok = false
						break
					}
				}
				if !ok {
					break // sowing patterns only grow with the stone count
				}
				// The move q --origin--> r must not capture: walk back from
				// the landing pit as the capture rule would.
				last := int(lastPit[origin][st])
				if last >= RowSize && (r[last] == 2 || r[last] == 3) {
					if s.rules.GrandSlam != GrandSlamForfeit {
						continue
					}
					captured := 0
					end := last
					for end >= RowSize && (r[end] == 2 || r[end] == 3) {
						end--
					}
					for j := end + 1; j <= last; j++ {
						captured += int(r[j])
					}
					if oppR != captured {
						continue // capture fires and leaves the database
					}
					// Grand slam forfeited: the move stands without capture.
				}
				// Legality of playing origin on q: the feeding obligation
				// binds only when q's opponent row is empty, and the move
				// feeds exactly oppR stones.
				if !s.rules.NoFeedObligation && oppR-int(patOppSum[origin][st]) <= 0 && oppR <= 0 {
					continue
				}
				preds = append(preds, rankBoard(&q, s.stones))
			}
		}
		if len(preds) > 0 {
			visit(i, preds)
		}
	}
}

// LoopValuesRun implements game.BatchLooper.
func (s *Slice) LoopValuesRun(base uint64, n int, out []game.Value) {
	switch s.loop {
	case LoopEvenSplit:
		for i := range out[:n] {
			out[i] = game.Value(s.stones / 2)
		}
	case LoopZero:
		for i := range out[:n] {
			out[i] = 0
		}
	default: // LoopOwnSide
		b := s.Board(base)
		for i := 0; i < n; i++ {
			if i > 0 {
				nextBoard(&b)
			}
			out[i] = game.Value(b.OwnStones())
		}
	}
}
