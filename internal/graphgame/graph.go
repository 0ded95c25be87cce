// Package graphgame is a seeded random game: an explicit position graph
// with the shapes real games rarely produce — self-loops, duplicate
// edges, counters at the word-parallel kernel's ceiling, early cutoffs in
// the same wave as a last counter decrement — and a reference solver
// (Solve) that shares no code with package ra. Together they are the host
// engines' differential oracle.
package graphgame

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"retrograde/internal/game"
)

// Shape sizes a random graph.
type Shape struct {
	// Size is the number of positions, at least 1.
	Size int
	// Neg is the largest value: values are scores in [0, Neg], higher is
	// better, and MoverValue(v) == Neg - v.
	Neg game.Value
	// MaxInternal bounds the internal moves of one position; a sixth of
	// the non-terminal positions have exactly this many, the rest at most
	// min(MaxInternal, 16).
	MaxInternal int
	// Cutoff makes Neg, the best value, finalize a position at once.
	Cutoff bool
}

// Lanes reports whether a graph of this shape runs under the SWAR
// kernel: values fit 4 bits and counters 3.
func (s Shape) Lanes() bool { return s.Neg <= 15 && s.MaxInternal <= 7 }

// Graph is a random game graph. It is immutable once built, so engines
// may read it from many goroutines.
type Graph struct {
	name     string
	shape    Shape
	moves    [][]game.Move
	preds    [][]uint64
	terminal []game.Value
	loop     []game.Value
}

// laneGraph is a Graph whose shape fits the lane contract.
type laneGraph struct{ *Graph }

// New builds the graph of shape s drawn from seed. It is a
// game.LaneGame when s.Lanes() holds.
func New(seed uint64, s Shape) game.Game {
	if s.Size < 1 || s.Neg == game.NoValue || s.MaxInternal < 0 || s.MaxInternal > game.MaxPackedSuccessors {
		panic(fmt.Sprintf("graphgame: invalid shape %+v", s))
	}
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	value := func() game.Value { return game.Value(r.IntN(int(s.Neg) + 1)) }
	n := s.Size
	g := &Graph{
		name:     fmt.Sprintf("graph-%d-%x", n, seed),
		shape:    s,
		moves:    make([][]game.Move, n),
		preds:    make([][]uint64, n),
		terminal: make([]game.Value, n),
		loop:     make([]game.Value, n),
	}
	for p := range n {
		g.terminal[p], g.loop[p] = value(), value()
		if r.IntN(8) == 0 {
			continue // terminal
		}
		// An ordinary position has at most 16 internal moves, so a
		// ceiling-wide shape stays a few thousand edges; shapes up to 16
		// draw exactly as they always have.
		internal := r.IntN(min(s.MaxInternal, 16) + 1)
		if r.IntN(6) == 0 {
			internal = s.MaxInternal
		}
		var ms []game.Move
		for k := range internal {
			// Mostly a nearby lower position, so waves run deep and cross
			// block boundaries in runs; now and then anywhere, closing cycles.
			child := p - 1 - r.IntN(max(min(p, 64), 1))
			switch {
			case k > 0 && r.IntN(8) == 0:
				child = int(ms[len(ms)-1].Child) // duplicate edge
			case child < 0 || r.IntN(24) == 0:
				child = r.IntN(n)
			}
			ms = append(ms, game.Move{Internal: true, Child: uint64(child)})
		}
		if internal > 0 && r.IntN(16) == 0 {
			ms[0].Child = uint64(p) // self-loop
		}
		for range r.IntN(3) {
			ms = append(ms, game.Move{Value: value()})
		}
		r.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		g.moves[p] = ms
		for _, m := range ms {
			if m.Internal {
				g.preds[m.Child] = append(g.preds[m.Child], uint64(p))
			}
		}
	}
	if s.Lanes() {
		return laneGraph{g}
	}
	return g
}

// Name implements game.Game.
func (g *Graph) Name() string { return g.name }

// Size implements game.Game.
func (g *Graph) Size() uint64 { return uint64(len(g.moves)) }

// Moves implements game.Game.
func (g *Graph) Moves(idx uint64, buf []game.Move) []game.Move { return append(buf, g.moves[idx]...) }

// TerminalValue implements game.Game.
func (g *Graph) TerminalValue(idx uint64) game.Value { return g.terminal[idx] }

// Predecessors implements game.Game: one entry per internal move into
// idx, so duplicate edges and self-loops keep their multiplicity.
func (g *Graph) Predecessors(idx uint64, buf []uint64) []uint64 { return append(buf, g.preds[idx]...) }

// MoverValue implements game.Game.
func (g *Graph) MoverValue(child game.Value) game.Value { return g.shape.Neg - child }

// Better implements game.Game.
func (g *Graph) Better(a, b game.Value) bool {
	return a != game.NoValue && (b == game.NoValue || a > b)
}

// Finalizes implements game.Game.
func (g *Graph) Finalizes(v game.Value) bool { return g.shape.Cutoff && v == g.shape.Neg }

// LoopValue implements game.Game.
func (g *Graph) LoopValue(idx uint64) game.Value { return g.loop[idx] }

// ValueBits implements game.Game.
func (g *Graph) ValueBits() int { return max(bits.Len16(uint16(g.shape.Neg)), 1) }

// Lanes implements game.LaneGame.
func (g laneGraph) Lanes() (game.LaneSpec, bool) {
	spec := game.LaneSpec{Neg: g.shape.Neg, FinalizeAt: -1, MaxInternal: g.shape.MaxInternal}
	if g.shape.Cutoff {
		spec.FinalizeAt = int(g.shape.Neg)
	}
	return spec, true
}
