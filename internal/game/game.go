// Package game defines the abstraction retrograde analysis operates on.
//
// A Game exposes a dense position space [0, Size) together with forward
// move generation, backward (un-move) generation, and a small algebra over
// position values. Retrograde analysis itself (package ra) is entirely
// game-agnostic: it only ever manipulates opaque Values through the
// methods declared here. This mirrors the paper's claim that retrograde
// analysis "has been applied successfully to several games" — the awari
// database generator and the oracle games (Nim, tic-tac-toe) used for
// validation all implement this one interface.
//
// Two value families are used in this repository:
//
//   - score values (awari): the number of stones the player to move will
//     capture, an integer in [0, n];
//   - WDL values (Nim, tic-tac-toe): win/draw/loss plus distance-to-end,
//     encoded by the helpers in wdl.go.
package game

import "fmt"

// Value is a game-specific encoded position value. The encoding is owned
// by the Game; retrograde analysis treats values as opaque except through
// the Game's MoverValue/Better/Finalizes methods.
//
// Packing contract: a Value always fits in PackedValueBits bits (the
// type is uint16 and must stay that wide). The in-core engines rely on
// this to pack value + successor counter + final flag into one 32-bit
// per-position state word, and the wire protocols rely on it for 2-byte
// value encodings. A Game's ValueBits() must not exceed PackedValueBits;
// Validate enforces this.
type Value uint16

// PackedValueBits is the width of a Value in packed state words and on
// the wire.
const PackedValueBits = 16

// NoValue marks "no value known yet". No game may use it as a real value.
const NoValue Value = 0xFFFF

// Move describes one legal move of the player to move.
type Move struct {
	// Internal is true when the successor position lies inside the same
	// database slice (for awari: a move that captures nothing).
	Internal bool
	// Child is the successor's index within the same database. Valid only
	// when Internal.
	Child uint64
	// Value is the value the mover obtains by playing this move, already
	// resolved (via a previously built database or a terminal rule).
	// Valid only when !Internal.
	Value Value
}

// Game is a position space analysable by retrograde analysis.
//
// Implementations must be safe for concurrent use by multiple goroutines:
// retrograde analysis calls Moves and Predecessors from many workers at
// once. In practice this means implementations are immutable after
// construction.
type Game interface {
	// Name identifies the game and slice, e.g. "awari-13".
	Name() string

	// Size is the number of positions; indices run over [0, Size).
	Size() uint64

	// Moves appends one entry per legal move at idx to buf and returns
	// the extended slice. An empty result means the position is terminal
	// and TerminalValue supplies its value.
	Moves(idx uint64, buf []Move) []Move

	// TerminalValue is the value of idx when Moves returns no moves.
	TerminalValue(idx uint64) Value

	// Predecessors appends to buf the index of q once per internal move
	// q -> idx (multiplicity preserved: if q reaches idx by two distinct
	// moves, q appears twice) and returns the extended slice.
	Predecessors(idx uint64, buf []uint64) []uint64

	// MoverValue converts the final value of an internal successor into
	// the value the mover obtains by moving there (negamax step).
	MoverValue(child Value) Value

	// Better reports whether a is strictly better than b for the player
	// to move. NoValue is worse than every real value.
	Better(a, b Value) bool

	// Finalizes reports whether achieving v determines the position
	// immediately: no other move could yield a better value.
	Finalizes(v Value) bool

	// LoopValue is the value assigned to idx if retrograde propagation
	// never determines it (the position lies in a cycle of non-converting
	// moves). Games whose graphs are acyclic never have it called.
	LoopValue(idx uint64) Value

	// ValueBits is the number of bits required to store any value of this
	// game, used for database packing and memory accounting.
	ValueBits() int
}

// BetterOf returns the better of a and b for g's mover, treating NoValue
// as worse than anything.
func BetterOf(g Game, a, b Value) Value {
	if b == NoValue {
		return a
	}
	if a == NoValue {
		return b
	}
	if g.Better(b, a) {
		return b
	}
	return a
}

// ValidateSample checks, for the given target positions only, that the
// predecessor relation is the exact multiset inverse of the internal move
// relation. It scans the full space once with the forward generator
// (O(Size * branching)) but needs memory only for the targets, making it
// usable on spaces too large for Validate.
func ValidateSample(g Game, targets []uint64) error {
	want := make(map[uint64]map[uint64]int, len(targets))
	for _, t := range targets {
		if t >= g.Size() {
			return fmt.Errorf("game %s: sample target %d outside [0, %d)", g.Name(), t, g.Size())
		}
		want[t] = make(map[uint64]int)
	}
	var moves []Move
	for q := uint64(0); q < g.Size(); q++ {
		moves = g.Moves(q, moves[:0])
		for _, m := range moves {
			if m.Internal {
				if mm := want[m.Child]; mm != nil {
					mm[q]++
				}
			}
		}
	}
	var preds []uint64
	//ravet:ignore detrand diagnostic-only check; any iteration order reports a genuine violation
	for t, edges := range want {
		preds = g.Predecessors(t, preds[:0])
		got := make(map[uint64]int)
		for _, q := range preds {
			got[q]++
		}
		//ravet:ignore detrand diagnostic-only check; any iteration order reports a genuine violation
		for q, k := range edges {
			if got[q] != k {
				return fmt.Errorf("game %s: position %d reaches %d by %d moves but Predecessors lists it %d times", g.Name(), q, t, k, got[q])
			}
		}
		//ravet:ignore detrand diagnostic-only check; any iteration order reports a genuine violation
		for q, k := range got {
			if edges[q] != k {
				return fmt.Errorf("game %s: Predecessors(%d) lists %d %d times but move generation found %d edges", g.Name(), t, q, k, edges[q])
			}
		}
	}
	return nil
}

// Validate performs structural sanity checks on a game and returns an
// error describing the first violation found. It is O(Size * branching)
// and intended for tests and the raverify tool, not for production paths.
//
// Checked invariants:
//   - ValueBits() respects the packing contract (<= PackedValueBits);
//   - every internal move points inside [0, Size);
//   - every resolved move carries a real value (not NoValue);
//   - no position's internal branching exceeds MaxPackedSuccessors
//     (returned as *CounterOverflowError);
//   - the predecessor relation is the exact multiset inverse of the
//     internal move relation;
//   - a declared LaneSpec matches MoverValue/Better/Finalizes exactly and
//     bounds the internal branching as promised;
//   - the optional batch generators (BatchIniter, BatchExpander,
//     BatchLooper) agree position-by-position with the scalar methods,
//     on runs of strides 1, 2, 3, 64 and Size/2+1 (see ValidateRuns).
func Validate(g Game) error {
	if vb := g.ValueBits(); vb < 1 || vb > PackedValueBits {
		return fmt.Errorf("game %s: ValueBits %d outside [1, %d] (value packing contract)", g.Name(), vb, PackedValueBits)
	}
	var spec LaneSpec
	laneOK := false
	if lg, ok := g.(LaneGame); ok {
		if err := validateLanes(lg); err != nil {
			return err
		}
		spec, laneOK = lg.Lanes()
	}
	n := g.Size()
	// forward[c] counts internal edges q -> c discovered by move
	// generation; back[c] counts entries returned by Predecessors(c).
	forward := make(map[uint64]map[uint64]int)
	var moves []Move
	for q := uint64(0); q < n; q++ {
		moves = g.Moves(q, moves[:0])
		internal := int64(0)
		for _, m := range moves {
			if m.Internal {
				internal++
				if m.Child >= n {
					return fmt.Errorf("game %s: position %d has internal move to %d outside [0, %d)", g.Name(), q, m.Child, n)
				}
				mm := forward[m.Child]
				if mm == nil {
					mm = make(map[uint64]int)
					forward[m.Child] = mm
				}
				mm[q]++
			} else if m.Value == NoValue {
				return fmt.Errorf("game %s: position %d has resolved move with NoValue", g.Name(), q)
			}
		}
		if internal > MaxPackedSuccessors {
			return &CounterOverflowError{Game: g.Name(), Position: q, Internal: internal, Max: MaxPackedSuccessors}
		}
		if laneOK && internal > int64(spec.MaxInternal) {
			return fmt.Errorf("game %s: position %d has %d internal successors, LaneSpec.MaxInternal is %d", g.Name(), q, internal, spec.MaxInternal)
		}
	}
	if err := ValidateRuns(g, 1, 2, 3, 64, n/2+1); err != nil {
		return err
	}
	var preds []uint64
	for c := uint64(0); c < n; c++ {
		preds = g.Predecessors(c, preds[:0])
		got := make(map[uint64]int)
		for _, q := range preds {
			if q >= n {
				return fmt.Errorf("game %s: Predecessors(%d) returned %d outside [0, %d)", g.Name(), c, q, n)
			}
			got[q]++
		}
		want := forward[c]
		//ravet:ignore detrand diagnostic-only check; any iteration order reports a genuine violation
		for q, k := range want {
			if got[q] != k {
				return fmt.Errorf("game %s: position %d reaches %d by %d moves but Predecessors lists it %d times", g.Name(), q, c, k, got[q])
			}
		}
		//ravet:ignore detrand diagnostic-only check; any iteration order reports a genuine violation
		for q, k := range got {
			if want[q] != k {
				return fmt.Errorf("game %s: Predecessors(%d) lists %d %d times but move generation found %d edges", g.Name(), c, q, k, want[q])
			}
		}
	}
	return nil
}
