package graphgame_test

import (
	"errors"
	"testing"

	"retrograde/internal/game"
	"retrograde/internal/graphgame"
	"retrograde/internal/oocore"
	"retrograde/internal/ra"
	"retrograde/internal/remote"
)

// TestScalarCounterCeiling solves graphs whose widest positions have
// exactly game.MaxPackedSuccessors internal moves, the most a 15-bit
// scalar counter holds, under every engine that runs the scalar kernel
// on them: Sequential, Concurrent on three goroutines, the out-of-core
// engine at 64-position blocks under a two-block cap (so blocks holding
// ceiling counters spill and reload at the top of the 16-bit meta
// stream), and the simulated cluster on three nodes. Each must match the
// reference solver's values, loop set and waves.
func TestScalarCounterCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("solves two graphs of about half a million edges each under four engines")
	}
	for _, tc := range []struct {
		seed  uint64
		shape graphgame.Shape
	}{
		{1, graphgame.Shape{Size: 130, Neg: 9, MaxInternal: game.MaxPackedSuccessors}},
		{2, graphgame.Shape{Size: 130, Neg: 40, MaxInternal: game.MaxPackedSuccessors, Cutoff: true}},
	} {
		g := graphgame.New(tc.seed, tc.shape)
		if k, _ := ra.ResolveKernel(g, ra.KernelAuto); k != ra.KernelScalar {
			t.Fatalf("%s: a ceiling graph runs the %v kernel, want scalar", g.Name(), k)
		}
		atCeiling := 0
		for p := range g.Size() {
			internal := 0
			for _, m := range g.Moves(p, nil) {
				if m.Internal {
					internal++
				}
			}
			if internal == game.MaxPackedSuccessors {
				atCeiling++
			}
		}
		if atCeiling == 0 {
			t.Fatalf("%s: no position has %d internal moves", g.Name(), game.MaxPackedSuccessors)
		}
		want := graphgame.Solve(g)
		for _, e := range []ra.Engine{
			ra.Sequential{},
			ra.Concurrent{Workers: 3},
			ra.Distributed{Workers: 3},
		} {
			got, err := e.Solve(g)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name(), e.Name(), err)
			}
			check(t, g.Name()+" "+e.Name(), want, got)
		}
		capped := oocore.Engine{MemLimit: 2 * 64 * ra.StateBytesPerPosition, BlockLen: 64, Dir: t.TempDir()}
		got, st, err := capped.SolveDetailed(g)
		if err != nil {
			t.Fatalf("%s %s: %v", g.Name(), capped.Name(), err)
		}
		check(t, g.Name()+" "+capped.Name(), want, got)
		if st.Spilled == 0 || st.Reloaded == 0 {
			t.Errorf("%s %s: %d spills, %d reloads: the ceiling counters never left core", g.Name(), capped.Name(), st.Spilled, st.Reloaded)
		}
	}
}

// overCeiling is a three-position game whose position 1 has one internal
// move more than a packed scalar counter holds, every one to position 2;
// positions 0 and 2 are terminal. Under a three-way cyclic partition the
// overflow is node 1's, not the coordinator's.
type overCeiling struct{}

const overCeilingMoves = game.MaxPackedSuccessors + 1

func (overCeiling) Name() string { return "over-ceiling" }
func (overCeiling) Size() uint64 { return 3 }
func (overCeiling) Moves(idx uint64, buf []game.Move) []game.Move {
	if idx == 1 {
		for range overCeilingMoves {
			buf = append(buf, game.Move{Internal: true, Child: 2})
		}
	}
	return buf
}
func (overCeiling) TerminalValue(uint64) game.Value { return 0 }
func (overCeiling) Predecessors(idx uint64, buf []uint64) []uint64 {
	if idx == 2 {
		for range overCeilingMoves {
			buf = append(buf, 1)
		}
	}
	return buf
}
func (overCeiling) MoverValue(v game.Value) game.Value { return 1 - v }
func (overCeiling) Better(a, b game.Value) bool        { return a > b }
func (overCeiling) Finalizes(game.Value) bool          { return false }
func (overCeiling) LoopValue(uint64) game.Value        { return 0 }
func (overCeiling) ValueBits() int                     { return 1 }

// TestInitErrorTyped: a position with more internal moves than the
// scalar counter holds fails every engine's initialisation with an error
// that errors.As resolves to *game.CounterOverflowError — the host
// engines, the out-of-core engine, the simulated cluster in both modes
// and the TCP mesh, where the failing node's own error must win over the
// dead-peer errors its exit causes on the other nodes.
func TestInitErrorTyped(t *testing.T) {
	g := overCeiling{}
	for _, e := range []ra.Engine{
		ra.Sequential{},
		ra.Concurrent{Workers: 3},
		oocore.Engine{MemLimit: 1, BlockLen: 64, Dir: t.TempDir()},
		ra.Distributed{Workers: 1},
		ra.Distributed{Workers: 3},
		ra.Distributed{Workers: 3, Protocol: ra.TreeProtocol},
		ra.Distributed{Workers: 3, Async: true},
		remote.Engine{Workers: 1},
		remote.Engine{Workers: 3},
	} {
		_, err := e.Solve(g)
		var ce *game.CounterOverflowError
		if !errors.As(err, &ce) {
			t.Errorf("%s: Solve = %v, want a *game.CounterOverflowError", e.Name(), err)
			continue
		}
		if ce.Position != 1 || ce.Internal != overCeilingMoves {
			t.Errorf("%s: %+v, want position 1 with %d internal moves", e.Name(), ce, overCeilingMoves)
		}
	}
}
