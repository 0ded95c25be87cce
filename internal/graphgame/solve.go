package graphgame

import "retrograde/internal/game"

// Solution is a game's retrograde fixpoint as the reference solver finds
// it.
type Solution struct {
	// Values holds every position's value.
	Values []game.Value
	// Round is the wave whose updates decided each position: 0 for one
	// decided at initialisation, -1 for a loop position.
	Round []int
	// Waves counts the propagation waves an engine runs: one per
	// non-empty round.
	Waves int
	// Loop marks the positions the loop rule resolved.
	Loop []bool
}

// Solve computes g's retrograde fixpoint by rounds over the forward move
// lists alone — no predecessor lists, no counters, no queues. Round k
// decides every undecided position whose moves, counting only successors
// decided in rounds before k, are either all known or include one the
// game finalizes on; a decided successor's value reaches the mover
// through MoverValue. Only rounds before k count, so positions are
// decided in the wave an engine decides them, whatever order its updates
// arrive in. After the last round that decides anything, every undecided
// position takes the better of its best known move and its loop value.
func Solve(g game.Game) Solution {
	n := g.Size()
	moves := make([][]game.Move, n)
	s := Solution{Values: make([]game.Value, n), Round: make([]int, n), Loop: make([]bool, n)}
	for p := range n {
		moves[p] = g.Moves(p, nil)
		s.Round[p] = -1
	}
	better := func(a, b game.Value) game.Value {
		if b == game.NoValue || a != game.NoValue && g.Better(a, b) {
			return a
		}
		return b
	}
	// best returns p's best move value over resolved moves and successors
	// decided before round k, and how many internal moves it left out.
	best := func(p uint64, k int) (game.Value, int) {
		v, open := game.NoValue, 0
		for _, m := range moves[p] {
			switch {
			case !m.Internal:
				v = better(m.Value, v)
			case s.Round[m.Child] >= 0 && s.Round[m.Child] < k:
				v = better(g.MoverValue(s.Values[m.Child]), v)
			default:
				open++
			}
		}
		return v, open
	}
	for k := 0; ; k++ {
		decided := 0
		for p := range n {
			if s.Round[p] >= 0 {
				continue
			}
			v, open := best(p, k)
			if len(moves[p]) == 0 {
				v = g.TerminalValue(p)
			} else if open > 0 && (v == game.NoValue || !g.Finalizes(v)) {
				continue
			}
			s.Values[p], s.Round[p] = v, k
			decided++
		}
		if decided == 0 {
			break
		}
		s.Waves++
	}
	for p := range n {
		if s.Round[p] < 0 {
			v, _ := best(p, s.Waves)
			s.Values[p], s.Loop[p] = better(g.LoopValue(p), v), true
		}
	}
	return s
}
