package game

import "fmt"

// This file defines the opt-in contracts of the in-core engines: the lane
// contract behind the bit-parallel (SWAR) kernel and the run generators
// both kernels walk. An engine needs nothing beyond the Game interface; a
// game that additionally satisfies LaneGame (and whose values are narrow
// enough) lets the in-core engines pack many positions into one machine
// word and run the wave loop branchlessly over whole words, and a game
// that implements the Batch interfaces generates a run of sibling
// positions for the price of decoding one.
//
// The lane layout itself (how value, counter and final flag share a lane)
// belongs to package ra; what belongs here is the *semantic* contract the
// SWAR kernels assume, stated as data so Validate can verify it
// exhaustively against the Game's own methods:
//
//   - values are totally ordered by their numeric encoding
//     (Better(a, b) == a > b for real values);
//   - the negamax step is an affine reflection
//     (MoverValue(v) == Neg - v);
//   - early cutoff happens at exactly one value
//     (Finalizes(v) == (v == FinalizeAt)), or never (FinalizeAt < 0);
//   - the internal branching factor is bounded by MaxInternal.
//
// Under this contract "no value yet" may be represented as numeric 0
// inside a lane: for a value-ordered game every real value is >= 0, so
// max(0, v) == BetterOf(NoValue, v) for every real v, and a position is
// only ever read back after it finalized with a real value.

// LaneSpec describes a game's value algebra to the SWAR kernels.
type LaneSpec struct {
	// Neg is the negamax constant: MoverValue(v) == Neg - v for every
	// real value v in [0, Neg].
	Neg Value
	// FinalizeAt is the unique value whose achievement finalizes a
	// position immediately (Finalizes(v) == (v == FinalizeAt)), or -1
	// when no value finalizes early.
	FinalizeAt int
	// MaxInternal bounds the number of internal successors of any
	// position. The SWAR layout dedicates 3 bits to the outstanding-
	// successor counter, so eligibility requires MaxInternal <= 7.
	MaxInternal int
}

// LaneGame is the opt-in interface for the bit-parallel kernels. Lanes
// returns the game's lane contract; ok reports whether the game's value
// algebra satisfies it at all (games with WDL-encoded values do not,
// regardless of width). Eligibility additionally requires ValueBits() to
// fit the lane value field; package ra checks that.
type LaneGame interface {
	Game
	Lanes() (spec LaneSpec, ok bool)
}

// InitStat is one position's initialisation summary, produced in bulk by
// BatchIniter implementations.
type InitStat struct {
	// Moves is the number of legal moves (for accounting). 0 means the
	// position is terminal and Best must hold its TerminalValue.
	Moves int32
	// Internal is the number of internal (same-slice) successors.
	Internal int32
	// Best is the best value over the resolved (non-internal) moves,
	// NoValue if every move is internal; for terminal positions, the
	// terminal value.
	Best Value
}

// The Batch interfaces generate runs. A run is an arithmetic progression
// of positions: (base, stride, n) covers base + i·stride for i in [0, n).
// A worker's run is consecutive local positions, so its stride is the
// global distance between two of them: 1 inside a contiguous block, the
// worker count across a cyclic partition. Callers keep every position of
// a run inside [0, Size).

// BatchIniter is an optional Game interface: games that can amortise
// position decoding over a run implement it, and workers of either kernel
// initialise a whole shard run in one call. The semantics per position
// must be identical to Moves/TerminalValue.
type BatchIniter interface {
	// InitStrided fills out[i] with the initialisation summary of
	// position base+i·stride for i in [0, n); out has length n.
	InitStrided(base, stride uint64, n int, out []InitStat)
}

// BatchExpander is an optional Game interface: bulk predecessor
// generation over a run. The multiset of indices passed to visit for
// each position must equal Predecessors(base+i·stride). The wire engines
// emit one message per index in the order listed, so the simulated
// engines' message counts and virtual time follow that order; listing
// them in Predecessors' order keeps those equal to a per-position walk.
type BatchExpander interface {
	// PredecessorsStrided calls visit(i, preds) once for every i in
	// [0, n) whose position base+i·stride has at least one predecessor;
	// preds is valid only for the duration of the call.
	PredecessorsStrided(base, stride uint64, n int, visit func(i int, preds []uint64))
}

// BatchLooper is an optional Game interface: bulk loop values over a run,
// used by the loop-resolution pass. Must agree with LoopValue per
// position.
type BatchLooper interface {
	// LoopValuesStrided fills out[i] with LoopValue(base+i·stride) for i
	// in [0, n).
	LoopValuesStrided(base, stride uint64, n int, out []Value)
}

// Runs is the set of run generators a worker walks: the game's own batch
// implementations where it has them, per-position adapters otherwise.
type Runs struct {
	BatchIniter
	BatchExpander
	BatchLooper
}

// RunsOf resolves g's run generators. The adapters carry scratch, so
// every worker resolves its own.
func RunsOf(g Game) Runs {
	pp := &perPosition{g: g}
	r := Runs{pp, pp, pp}
	if b, ok := g.(BatchIniter); ok {
		r.BatchIniter = b
	}
	if b, ok := g.(BatchExpander); ok {
		r.BatchExpander = b
	}
	if b, ok := g.(BatchLooper); ok {
		r.BatchLooper = b
	}
	return r
}

// perPosition adapts a Game's per-position methods to the Batch
// interfaces: the generator of games without batch implementations, and
// the reference Validate holds batch implementations to.
type perPosition struct {
	g     Game
	moves []Move
	preds []uint64
}

func (p *perPosition) InitStrided(base, stride uint64, n int, out []InitStat) {
	for i := range out[:n] {
		idx := base + uint64(i)*stride
		p.moves = p.g.Moves(idx, p.moves[:0])
		s := InitStat{Moves: int32(len(p.moves)), Best: NoValue}
		for _, m := range p.moves {
			if m.Internal {
				s.Internal++
			} else {
				s.Best = BetterOf(p.g, s.Best, m.Value)
			}
		}
		if len(p.moves) == 0 {
			s.Best = p.g.TerminalValue(idx)
		}
		out[i] = s
	}
}

func (p *perPosition) PredecessorsStrided(base, stride uint64, n int, visit func(i int, preds []uint64)) {
	for i := 0; i < n; i++ {
		p.preds = p.g.Predecessors(base+uint64(i)*stride, p.preds[:0])
		if len(p.preds) > 0 {
			visit(i, p.preds)
		}
	}
}

func (p *perPosition) LoopValuesStrided(base, stride uint64, n int, out []Value) {
	for i := range out[:n] {
		out[i] = p.g.LoopValue(base + uint64(i)*stride)
	}
}

// MaxPackedSuccessors is the largest internal-successor count the packed
// scalar state layout can represent (15-bit counter). Games must stay
// within it; Validate and worker initialisation enforce it with
// CounterOverflowError instead of letting the counter wrap.
const MaxPackedSuccessors = 1<<15 - 1

// CounterOverflowError reports a position whose internal branching factor
// exceeds what a packed successor counter can hold.
type CounterOverflowError struct {
	Game     string // game name
	Position uint64 // global position index
	Internal int64  // internal successors found
	Max      int64  // largest representable count
}

func (e *CounterOverflowError) Error() string {
	return fmt.Sprintf("game %s: position %d has %d internal successors, packed counter supports at most %d",
		e.Game, e.Position, e.Internal, e.Max)
}

// ValidateRuns checks the optional batch generators against the scalar
// methods, position by position over the whole space, on runs of every
// given stride: for each stride k, the progressions r, r+k, r+2k, … for
// every residue r < k are walked in runs of mixed lengths so run
// boundaries are exercised. Predecessors are compared as multisets.
// Validate calls it with strides 1, 2, 3, 64 and Size/2+1.
func ValidateRuns(g Game, strides ...uint64) error {
	n := g.Size()
	bi, hasInit := g.(BatchIniter)
	be, hasExp := g.(BatchExpander)
	bl, hasLoop := g.(BatchLooper)
	if !hasInit && !hasExp && !hasLoop {
		return nil
	}
	// The reference, one position at a time.
	ref := &perPosition{g: g}
	wantInit := make([]InitStat, n)
	wantLoop := make([]Value, n)
	wantPreds := make([][]uint64, n)
	for idx := range n {
		if hasInit {
			ref.InitStrided(idx, 1, 1, wantInit[idx:idx+1])
		}
		if hasLoop {
			wantLoop[idx] = g.LoopValue(idx)
		}
		if hasExp {
			wantPreds[idx] = g.Predecessors(idx, nil)
		}
	}
	stats := make([]InitStat, 0, 64)
	loops := make([]Value, 0, 64)
	got := make(map[uint64]int)
	for _, stride := range strides {
		if stride == 0 {
			return fmt.Errorf("game %s: ValidateRuns needs positive strides", g.Name())
		}
		for r := uint64(0); r < min(stride, n); r++ {
			for base, runLen := r, 1; base < n; base += uint64(runLen) * stride {
				runLen = int(min(uint64(runLen*2+1), (n-1-base)/stride+1))
				if hasInit {
					stats = append(stats[:0], make([]InitStat, runLen)...)
					bi.InitStrided(base, stride, runLen, stats)
				}
				if hasLoop {
					loops = append(loops[:0], make([]Value, runLen)...)
					bl.LoopValuesStrided(base, stride, runLen, loops)
				}
				expanded := make([][]uint64, runLen)
				if hasExp {
					be.PredecessorsStrided(base, stride, runLen, func(i int, p []uint64) {
						expanded[i] = append([]uint64(nil), p...)
					})
				}
				for i := range runLen {
					idx := base + uint64(i)*stride
					if hasInit && stats[i] != wantInit[idx] {
						return fmt.Errorf("game %s: InitStrided(%d, stride %d) = %+v, scalar init gives %+v", g.Name(), idx, stride, stats[i], wantInit[idx])
					}
					if hasLoop && loops[i] != wantLoop[idx] {
						return fmt.Errorf("game %s: LoopValuesStrided(%d, stride %d) = %d, LoopValue gives %d", g.Name(), idx, stride, loops[i], wantLoop[idx])
					}
					if !hasExp {
						continue
					}
					clear(got)
					for _, q := range wantPreds[idx] {
						got[q]++
					}
					for _, q := range expanded[i] {
						got[q]--
					}
					//ravet:ignore detrand diagnostic-only check; any iteration order reports a genuine violation
					for q, k := range got {
						if k != 0 {
							return fmt.Errorf("game %s: PredecessorsStrided(%d, stride %d) disagrees with Predecessors about %d (multiplicity off by %d)", g.Name(), idx, stride, q, -k)
						}
					}
				}
			}
		}
	}
	return nil
}

// validateLanes checks a LaneGame's declared LaneSpec against the game's
// own methods, exhaustively over the value range [0, Neg]. Returns nil
// for games that decline the contract (ok == false).
func validateLanes(g LaneGame) error {
	spec, ok := g.Lanes()
	if !ok {
		return nil
	}
	if spec.Neg == NoValue {
		return fmt.Errorf("game %s: LaneSpec.Neg is NoValue", g.Name())
	}
	if spec.MaxInternal < 0 {
		return fmt.Errorf("game %s: LaneSpec.MaxInternal %d negative", g.Name(), spec.MaxInternal)
	}
	if spec.FinalizeAt >= 0 && Value(spec.FinalizeAt) > spec.Neg {
		return fmt.Errorf("game %s: LaneSpec.FinalizeAt %d outside value range [0, %d]", g.Name(), spec.FinalizeAt, spec.Neg)
	}
	for v := Value(0); v <= spec.Neg; v++ {
		if got, want := g.MoverValue(v), spec.Neg-v; got != want {
			return fmt.Errorf("game %s: MoverValue(%d) = %d, LaneSpec.Neg %d implies %d", g.Name(), v, got, spec.Neg, want)
		}
		if got, want := g.Finalizes(v), spec.FinalizeAt >= 0 && int(v) == spec.FinalizeAt; got != want {
			return fmt.Errorf("game %s: Finalizes(%d) = %v, LaneSpec.FinalizeAt %d implies %v", g.Name(), v, got, spec.FinalizeAt, want)
		}
		for u := Value(0); u <= spec.Neg; u++ {
			if got, want := g.Better(v, u), v > u; got != want {
				return fmt.Errorf("game %s: Better(%d, %d) = %v, lane order implies %v", g.Name(), v, u, got, want)
			}
		}
	}
	return nil
}
