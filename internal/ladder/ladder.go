// Package ladder builds families of endgame databases: the ladder.
//
// The n-stone database consults smaller databases through the moves that
// take stones off the board. A family's reach is the fewest stones such a
// move removes: an awari capture takes at least two, a Kalah bank at least
// one. Rung n therefore reads only rungs 0..n-reach, and BuildRungs solves
// up to reach rungs side by side. Each rung is an independent retrograde
// analysis (solved by any ra.Engine); the finished rungs, held in one
// Rungs store, provide the lookup for the ones above. More than one rung
// is in flight only under the engines this package knows to be reentrant
// (ra.Sequential, ra.Concurrent, ra.Distributed); any other engine is
// called one rung at a time. This mirrors the paper's methodology: the
// headline measurements are for a single large rung, with all smaller
// rungs precomputed.
package ladder

import (
	"fmt"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// Rungs is the store of a ladder's finished rungs, for every family.
type Rungs struct {
	results []*ra.Result
}

// Family is what BuildRungs needs of one family of rungs.
type Family struct {
	// Reach is the fewest stones a move into a lower rung removes, a
	// constant of the game: rung n reads only rungs 0..n-Reach.
	Reach int
	// Rung returns the game of rung n, wired to the store's Lookup.
	Rung func(n int) (game.Game, error)
	// Finish, if non-nil, is applied to each solved rung before it is
	// stored, from the caller's goroutine; an error fails the rung.
	Finish func(n int, r *ra.Result) error
}

// BuildRungs fills s with rungs 0..maxStones of family f, solving every
// rung with engine. onRung, if non-nil, is called after each rung is
// stored, in order 0..maxStones and from the caller's goroutine. Up to
// min(f.Reach, lookahead(engine)) rungs are in flight: rung n+k starts
// once rung n is stored and reported, so with one rung in flight rung
// n+1 starts only after rung n is reported and onRung never runs beside
// a Solve. BuildRungs returns only after every rung it started has
// finished.
func BuildRungs(s *Rungs, f Family, maxStones int, engine ra.Engine, onRung func(stones int, r *ra.Result)) error {
	// Rungs in flight read rungs at least Reach below them while the
	// caller stores the ones between, so the table is allocated at full
	// length and never appended to.
	s.results = make([]*ra.Result, maxStones+1)
	depth := min(f.Reach, lookahead(engine))
	rungs := make([]chan solved, maxStones+1)
	start := func(n int) {
		if n > maxStones {
			return
		}
		ch := make(chan solved, 1)
		rungs[n] = ch
		go func() {
			r, err := f.solve(n, engine)
			ch <- solved{r, err}
		}()
	}
	for n := 0; n < depth; n++ {
		start(n)
	}
	for n := 0; n <= maxStones; n++ {
		out := <-rungs[n]
		if out.err == nil && f.Finish != nil {
			out.err = f.Finish(n, out.r)
		}
		if out.err != nil {
			// The rungs above n still in flight finish before BuildRungs
			// returns.
			for _, ch := range rungs[n+1:] {
				if ch != nil {
					<-ch
				}
			}
			return fmt.Errorf("ladder: rung %d: %w", n, out.err)
		}
		s.results[n] = out.r
		if onRung != nil {
			onRung(n, out.r)
		}
		start(n + depth)
	}
	return nil
}

// solve solves rung n of the family.
func (f Family) solve(n int, engine ra.Engine) (*ra.Result, error) {
	g, err := f.Rung(n)
	if err != nil {
		return nil, err
	}
	return engine.Solve(g)
}

// solved is one rung's outcome, handed from its solving goroutine to
// BuildRungs.
type solved struct {
	r   *ra.Result
	err error
}

// lookahead is the most rungs BuildRungs keeps in flight under engine:
// two for the ra engines whose Solve is reentrant, one for any other,
// since a foreign engine may hold a single-goroutine tracer, a memory cap
// sized for one rung or a shared checkpoint directory.
func lookahead(engine ra.Engine) int {
	switch engine.(type) {
	case ra.Sequential, ra.Concurrent, ra.Distributed:
		return 2
	}
	return 1
}

// MaxStones returns the largest rung of the store, or -1 for an empty one.
func (s *Rungs) MaxStones() int { return len(s.results) - 1 }

// Lookup returns the database value of position idx of the stones-stone
// rung; it satisfies awari.Lookup and kalah.Lookup.
func (s *Rungs) Lookup(stones int, idx uint64) game.Value {
	return s.results[stones].Values[idx]
}

// Result returns the finished analysis of one rung.
func (s *Rungs) Result(stones int) *ra.Result { return s.results[stones] }

// captureReach is awari's reach: a capture takes at least two stones.
const captureReach = 2

// Config selects the rules and loop scoring of an awari ladder.
type Config struct {
	Rules awari.Rules
	Loop  awari.LoopRule
	// Refine applies ra.Refine to every rung after it is solved, so that
	// cyclic positions are consistent with their best moves (see
	// DESIGN.md). Higher rungs then consult the refined values. Build
	// refuses it under awari.LoopZero, where the sweep does not converge
	// from rung 2 up.
	Refine bool
	// RefineSweeps bounds refinement sweeps per rung; <= 0 uses the
	// ra.Refine default budget.
	RefineSweeps int
}

// Ladder holds finished awari databases for stone totals 0..MaxStones().
type Ladder struct {
	Rungs
	cfg     Config
	refined []ra.RefineStats
}

// Build constructs awari databases for totals 0..maxStones, solving every
// rung with engine. The per-rung results (including work statistics) are
// retained. onRung, if non-nil, is called after each rung completes, in
// order 0..maxStones and from the caller's goroutine. When the engine is
// reentrant (see the package doc), rung n+1 starts as soon as rung n-1 is
// stored, refined and reported, and is solved alongside rung n; any other
// engine solves rung n+1 only after rung n is reported, so onRung never
// runs beside its Solve. Build returns only after every rung it started
// has finished.
func Build(cfg Config, maxStones int, engine ra.Engine, onRung func(stones int, r *ra.Result)) (*Ladder, error) {
	if maxStones < 0 || maxStones > awari.MaxStones {
		return nil, fmt.Errorf("ladder: maxStones %d out of range [0, %d]", maxStones, awari.MaxStones)
	}
	if cfg.Refine && cfg.Loop == awari.LoopZero {
		return nil, fmt.Errorf("ladder: Refine is not supported under LoopZero: the refinement sweep does not converge from rung 2 up")
	}
	l := &Ladder{cfg: cfg}
	f := Family{Reach: captureReach, Rung: l.rung}
	if cfg.Refine {
		l.refined = make([]ra.RefineStats, maxStones+1)
		f.Finish = l.refine
	}
	if err := BuildRungs(&l.Rungs, f, maxStones, engine, onRung); err != nil {
		return nil, err
	}
	return l, nil
}

// rung is awari's rung constructor: the n-stone slice under the ladder's
// rules, wired to its lookup.
func (l *Ladder) rung(n int) (game.Game, error) {
	return awari.NewSlice(l.cfg.Rules, l.cfg.Loop, n, l.Lookup)
}

// refine refines rung n before the ladder stores it.
func (l *Ladder) refine(n int, r *ra.Result) error {
	st := ra.Refine(l.Slice(n), r, l.cfg.RefineSweeps)
	if !st.Converged {
		return fmt.Errorf("refinement did not converge within %d sweeps", st.Sweeps)
	}
	l.refined[n] = st
	return nil
}

// RefineStats returns the refinement statistics of a rung; the zero value
// is returned when the ladder was built without refinement.
func (l *Ladder) RefineStats(stones int) ra.RefineStats {
	if stones >= len(l.refined) {
		return ra.RefineStats{}
	}
	return l.refined[stones]
}

// SolveRung solves the n-stone database using the ladder's finished
// smaller rungs, without storing the result in the ladder. All rungs
// below n must already be present.
func (l *Ladder) SolveRung(n int, engine ra.Engine) (*ra.Result, error) {
	if n > l.MaxStones()+1 {
		return nil, fmt.Errorf("ladder: rung %d requires rungs 0..%d first", n, n-1)
	}
	return Family{Rung: l.rung}.solve(n, engine)
}

// Config returns the ladder's configuration.
func (l *Ladder) Config() Config { return l.cfg }

// Slice returns the game.Game view of one finished (or the next unbuilt)
// rung, wired to the ladder's lookup.
func (l *Ladder) Slice(stones int) *awari.Slice {
	return awari.MustSlice(l.cfg.Rules, l.cfg.Loop, stones, l.Lookup)
}

// BestMove returns the best move (pit number) and its value for the given
// board, using the finished databases. ok is false for terminal positions.
func (l *Ladder) BestMove(b awari.Board) (pit int, value game.Value, ok bool) {
	n := b.Stones()
	if n > l.MaxStones() {
		panic(fmt.Sprintf("ladder: board has %d stones, ladder only reaches %d", n, l.MaxStones()))
	}
	return awari.BestMove(l.cfg.Rules, b, l.Lookup)
}

// Value returns the database value of a board (any stone total within the
// ladder).
func (l *Ladder) Value(b awari.Board) game.Value {
	return l.Lookup(b.Stones(), awari.Rank(b))
}
