package awari

import (
	"math/bits"
	"sync"

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
// sibling positions (same stone count, ranks a fixed stride apart):
//
//   - a run is an arithmetic progression of ranks (base, stride, n): a
//     worker's consecutive positions, stride 1 inside a block and P
//     across a P-way cyclic partition. Its first board is decoded once
//     (Unrank) and each step after that reads the mover's next row from
//     a shared table of rows in colex order (ownRows), carrying into the
//     opponent's row when it leaves the block of positions that share
//     one — at stride 1, once per block;
//   - a board is two row words (rows: one byte per pit, the mover's row
//     in one uint64 and the opponent's in the other). No pit reaches 128
//     stones, so byte-wise arithmetic cannot carry between pits: a sow is
//     two word adds from a pattern table (sowAdd) plus a mask clearing
//     the origin, a row sum is one multiply, the "2 or 3" capture test is
//     a zero-byte test on the opponent word, and the perspective swap
//     r = p.Swapped() is exchanging the two words;
//   - predecessor candidates are un-sown by two word subtractions whose
//     borrow shows in the pit bytes' top bits, and verified arithmetically
//     (capture test on the already-known post-sow board, feeding legality
//     from row sums) instead of replaying the move;
//   - only boards that actually leave the slice (captures) or enter it
//     (predecessors) are ranked, from the row words' prefix sums through
//     a flat local binomial table.
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

// rows is a board as two row words, one byte per pit: rows[0] holds the
// mover's pits 0..5, rows[1] the opponent's pits 6..11, pit RowSize*w+i
// in byte i of word w. A board holds at most MaxStones < 128 stones, so
// every byte keeps its top bit clear, and adding a sowing pattern to a
// board cannot carry into the next pit.
type rows [2]uint64

// Row-word constants: rowMask covers exactly the RowSize pit bytes,
// rowLo has a 1 in each of them and rowHi each one's top bit.
const (
	rowMask uint64 = 1<<(8*RowSize) - 1
	rowLo   uint64 = rowMask / 0xFF
	rowHi          = rowLo << 7
)

// rowSum returns the number of stones in one row word: the multiply
// accumulates every pit byte into the top pit byte.
func rowSum(w uint64) int { return int(byte(w * rowLo >> (8 * (RowSize - 1)))) }

// toRows packs a Board into row words.
func toRows(b *Board) rows {
	var w rows
	for i := Pits - 1; i >= 0; i-- {
		w[i/RowSize] = w[i/RowSize]<<8 | uint64(b[i])
	}
	return w
}

// capturable flags, with the byte's top bit, every pit of a row word
// holding 2 or 3 stones: clearing each byte's low bit maps {2, 3} to 2,
// and the exact zero-byte test (no borrow crosses a byte, since every
// byte stays below 128) then finds the bytes equal to 2.
func capturable(w uint64) uint64 {
	x := (w &^ rowLo) ^ rowLo<<1
	return rowHi &^ ((x + (rowHi - rowLo)) | x)
}

// captureMask returns the bytes of an opponent row word, whose capturable
// pits are capt, that a sow landing in the pit ending land (see sowLand)
// captures: the run of capturable pits reaching down from the landing
// pit, cut at the nearest pit below it that is not capturable. Zero when
// nothing is captured, including when the sow landed in the mover's row
// (land == 0).
func captureMask(capt, land uint64) uint64 {
	stop := land & rowHi &^ capt
	return land &^ (1<<(64-bits.LeadingZeros64(stop)) - 1)
}

// Sowing tables, indexed [origin][stones]. sowAdd is the delivery count
// per pit as row words (zero at the origin, which sowing skips), so a sow
// is two word adds; sowLand covers the opponent-row bytes up to and
// including the pit receiving the final stone, and is zero when the final
// stone lands in the mover's row.
var sowAdd [RowSize][MaxStones + 1]rows
var sowLand [RowSize][MaxStones + 1]uint64

func init() {
	for o := 0; o < RowSize; o++ {
		for s := 1; s <= MaxStones; s++ {
			pit := o
			var pat Board
			for i := 0; i < s; i++ {
				pit = (pit + 1) % Pits
				if pit == o {
					pit = (pit + 1) % Pits
				}
				pat[pit]++
			}
			sowAdd[o][s] = toRows(&pat)
			if pit >= RowSize {
				sowLand[o][s] = 1<<(8*(pit-RowSize+1)) - 1
			}
		}
	}
}

// rankBoard ranks a board holding exactly stones stones, as
// Space(stones).Rank but straight from the row words and without
// validation — callers construct boards whose pit sum is correct by
// arithmetic. The colex rank sums, over pits i = 1..11 with P_i the
// stones in pits 0..i, C(P_i+i, i) - C(P_(i-1)+i, i); by Pascal's rule
// that telescopes to C(n+11, 11) - 1 - sum over j = 0..10 of
// C(P_j+j, j+1). One multiply per row word yields every prefix sum P_j at
// once (byte j of the product), so the rank is eleven independent table
// reads instead of a walk whose every step waits on the one before.
func rankBoard(w rows, stones int) uint64 {
	own := w[0] * rowLo                                   // byte j: P_j
	opp := w[1]*rowLo + (own>>(8*(RowSize-1))&0xFF)*rowLo // byte j: P_(RowSize+j)
	r := binoms[stones+Pits-1][Pits-1] - 1
	for j := 0; j < RowSize; j++ {
		r -= binoms[int(own>>(8*j)&0xFF)+j][j+1]
	}
	for j := 0; j < RowSize-1; j++ {
		r -= binoms[int(opp>>(8*j)&0xFF)+RowSize+j][RowSize+j+1]
	}
	return r
}

// ownRows[s] lists the row words holding s stones in colex order:
// ownRows[s].list[k] is the row of colex rank k among the C(s+5, 5) ways
// to hold s stones in RowSize pits. The positions of a slice sharing one
// opponent row are a block of consecutive ranks, the mover's row running
// through that list in order, so a walk that stays in its block reads
// each new mover's row from it. Rung n uses the lists for 0..n stones,
// C(n+6, 6) words in all (145 KiB at rung 12, 2.9 MiB at rung 22); each
// is built on first use and shared by every slice.
var ownRows [MaxStones + 1]struct {
	once sync.Once
	list []uint64
}

// rowList returns ownRows[stones].list, building it on first use.
func rowList(stones int) []uint64 {
	t := &ownRows[stones]
	t.once.Do(func() {
		t.list = appendRows(make([]uint64, 0, binoms[stones+RowSize-1][RowSize-1]), stones, RowSize-1, 0)
	})
	return t.list
}

// appendRows appends to list, in colex order, every row word that holds
// stones stones in pits 0..top on top of the pits above top, which high
// holds: the highest pit varies slowest.
func appendRows(list []uint64, stones, top int, high uint64) []uint64 {
	if top == 0 {
		return append(list, high|uint64(stones))
	}
	for c := 0; c <= stones; c++ {
		list = appendRows(list, stones-c, top-1, high|uint64(c)<<(8*top))
	}
	return list
}

// ownRank returns the colex rank of a row word holding stones stones
// among all such rows: rankBoard's formula over RowSize pits.
func ownRank(w uint64, stones int) uint64 {
	p := w * rowLo // byte j: P_j
	r := binoms[stones+RowSize-1][RowSize-1] - 1
	for j := 0; j < RowSize-1; j++ {
		r -= binoms[int(p>>(8*j)&0xFF)+j][j+1]
	}
	return r
}

// walk steps a board along a run: the positions base + i·stride, i = 0,
// 1, …. A step keeps the opponent's row and moves the mover's row stride
// ranks forward through its ownRows list; a step past the end of the list
// carries into the opponent row, one block at a time. At stride 1 that is
// the colex successor: pit 0's stones move up one pit at a time, and once
// the mover's row is all in pit 5 the next block starts with one stone
// moved to pit 6 and the rest back in pit 0.
type walk struct {
	w      rows
	stride uint64
	own    uint64   // colex rank of w[0] in list
	list   []uint64 // ownRows of the mover's stone count; nil until the first step
	stones int      // stones in w[0]
}

// walkFrom decodes the first position of the run (base, stride).
func (s *Slice) walkFrom(base, stride uint64) walk {
	b := s.Board(base)
	return walk{w: toRows(&b), stride: stride}
}

// next advances the walk to the next position of its run. Callers never
// step past the last position of the space.
func (k *walk) next() {
	if k.list == nil {
		k.stones = rowSum(k.w[0])
		k.list = rowList(k.stones)
		k.own = ownRank(k.w[0], k.stones)
	}
	k.own += k.stride
	for k.own >= uint64(len(k.list)) {
		// Leave the block: the opponent row steps to its colex successor
		// among rows (with the mover's stone count as the lowest pit),
		// and the rank restarts at the next block's first row.
		k.own -= uint64(len(k.list))
		if k.stones > 0 {
			k.stones--
			k.w[1]++
		} else {
			sh := bits.TrailingZeros64(k.w[1]) &^ 7
			c := k.w[1] >> sh & 0xFF
			k.w[1] = k.w[1]&^(0xFF<<sh) + 1<<(sh+8)
			k.stones = int(c) - 1
		}
		k.list = rowList(k.stones)
	}
	k.w[0] = k.list[k.own]
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

// InitRun is InitStrided at stride 1.
func (s *Slice) InitRun(base uint64, n int, out []game.InitStat) { s.InitStrided(base, 1, n, out) }

// InitStrided implements game.BatchIniter. Unlike the scalar Moves path
// it never ranks internal children — the init phase only needs their
// count — so the only rank per move is for captures resolving into a
// smaller database.
func (s *Slice) InitStrided(base, stride uint64, n int, out []game.InitStat) {
	k := s.walkFrom(base, stride)
	for i := 0; i < n; i++ {
		if i > 0 {
			k.next()
		}
		out[i] = s.initStat(k.w)
	}
}

// initStat computes one position's init summary: legal-move count,
// internal-successor count, and the best resolved (capturing or terminal)
// value.
func (s *Slice) initStat(w rows) game.InitStat {
	starved := !s.rules.NoFeedObligation && w[1] == 0
	forfeit := s.rules.GrandSlam == GrandSlamForfeit
	stat := game.InitStat{Best: game.NoValue}
	for todo := w[0]; todo != 0; {
		sh := bits.TrailingZeros64(todo) &^ 7
		todo &^= 0xFF << sh
		from, st := sh/8, w[0]>>sh&0xFF
		add := &sowAdd[from][st]
		m := (w[0] + add[0]) &^ (0xFF << sh)
		o := w[1] + add[1]
		taken := captureMask(capturable(o), sowLand[from][st])
		if forfeit && o&^taken == 0 {
			taken = 0 // grand slam forfeited: the move stands, the stones remain
		}
		if starved && o&^taken == 0 {
			continue // does not feed the starved opponent: illegal
		}
		stat.Moves++
		if taken == 0 {
			stat.Internal++
			continue
		}
		// Capture: the move resolves against the smaller database.
		rest := s.stones - rowSum(o&taken)
		mv := game.Value(s.stones) - s.lookup(rest, rankBoard(rows{o &^ taken, m}, rest))
		if stat.Best == game.NoValue || mv > stat.Best {
			stat.Best = mv
		}
	}
	if stat.Moves == 0 {
		// Terminal: a mover with an empty row forfeits the board, a mover
		// who cannot feed a starved opponent captures everything.
		if w[0] == 0 {
			stat.Best = 0
		} else {
			stat.Best = game.Value(s.stones)
		}
	}
	return stat
}

// PredecessorsRun is PredecessorsStrided at stride 1.
func (s *Slice) PredecessorsRun(base uint64, n int, visit func(i int, preds []uint64)) {
	s.PredecessorsStrided(base, 1, n, visit)
}

// PredecessorsStrided implements game.BatchExpander. It works on the swapped
// view r of p (the post-move board from the previous mover's
// perspective), which on row words is free, and verifies each un-sow
// candidate arithmetically: the sow is exact by construction, so validity
// reduces to "no capture fires at the landing pit" plus feeding legality
// — no forward Apply per candidate.
func (s *Slice) PredecessorsStrided(base, stride uint64, n int, visit func(i int, preds []uint64)) {
	k := s.walkFrom(base, stride)
	forfeit := s.rules.GrandSlam == GrandSlamForfeit
	scratch := predScratch.Get().(*[]uint64)
	preds := *scratch
	for i := 0; i < n; i++ {
		if i > 0 {
			k.next()
		}
		p := k.w
		// Feeding legality: a non-capturing move from a predecessor q
		// leaves q's opponent row holding exactly p's own row (r's
		// opponent row). So when p's own row is empty, q's opponent row
		// was empty too and the move did not feed it: under the feeding
		// obligation no candidate is legal. Otherwise every one is.
		if !s.rules.NoFeedObligation && p[0] == 0 {
			continue
		}
		r := rows{p[1], p[0]} // Board.Swapped: the rows trade places
		capR := capturable(r[1])
		preds = preds[:0]
		for origin := 0; origin < RowSize; origin++ {
			sh := 8 * origin
			if r[0]>>sh&0xFF != 0 {
				// Sowing empties the origin and (captures aside, but a
				// capture would leave the database) nothing refills it.
				continue
			}
			for st := 1; st <= s.stones; st++ {
				add := &sowAdd[origin][st]
				q := rows{(r[0] | uint64(st)<<sh) - add[0], r[1] - add[1]}
				if (q[0]|q[1])&rowHi != 0 {
					// A pit went below zero; sowing patterns only grow
					// with the stone count, so larger counts fail too.
					break
				}
				// The move q --origin--> r must not capture: walk back
				// from the landing pit as the capture rule would.
				taken := captureMask(capR, sowLand[origin][st])
				if taken != 0 && (!forfeit || r[1]&^taken != 0) {
					continue // capture fires and leaves the database
				}
				// Otherwise no capture, or a grand slam forfeited: the
				// move stands without capture.
				preds = append(preds, rankBoard(q, s.stones))
			}
		}
		if len(preds) > 0 {
			visit(i, preds)
		}
	}
	*scratch = preds
	predScratch.Put(scratch)
}

// predScratch recycles PredecessorsStrided's candidate lists: visit may use a
// list only for the duration of its call, so a list is free again when
// the run is done.
var predScratch = sync.Pool{New: func() any { return new([]uint64) }}

// LoopValuesRun is LoopValuesStrided at stride 1.
func (s *Slice) LoopValuesRun(base uint64, n int, out []game.Value) {
	s.LoopValuesStrided(base, 1, n, out)
}

// LoopValuesStrided implements game.BatchLooper.
func (s *Slice) LoopValuesStrided(base, stride uint64, n int, out []game.Value) {
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
		k := s.walkFrom(base, stride)
		for i := 0; i < n; i++ {
			if i > 0 {
				k.next()
			}
			out[i] = game.Value(rowSum(k.w[0]))
		}
	}
}
