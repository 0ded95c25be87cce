// Package ladder builds families of awari endgame databases.
//
// The n-stone database consults smaller databases through capture moves —
// the "ladder". A capture takes at least two stones, so rung n reads only
// rungs 0..n-2: rung n+1 does not wait for rung n, and Build solves the two
// side by side. Each rung is an independent retrograde analysis (solved by
// any ra.Engine); the finished rungs provide the lookup for the ones above.
// Two rungs are in flight only under the engines this package knows to be
// reentrant (ra.Sequential, ra.Concurrent, ra.Distributed); any other
// engine is called one rung at a time. This mirrors the paper's
// methodology: the headline measurements are for a single large rung, with
// all smaller rungs precomputed.
package ladder

import (
	"fmt"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// Config selects the rules and loop scoring of a ladder.
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
	cfg     Config
	results []*ra.Result
	refined []ra.RefineStats
}

// Build constructs databases for totals 0..maxStones, solving every rung
// with engine. The per-rung results (including work statistics) are
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
	// Rungs in flight read rungs at least two below them while the caller
	// stores the one between, so the tables are allocated at full length
	// and never appended to.
	l := &Ladder{cfg: cfg, results: make([]*ra.Result, maxStones+1)}
	if cfg.Refine {
		l.refined = make([]ra.RefineStats, maxStones+1)
	}
	depth := lookahead(engine)
	rungs := make([]chan solved, maxStones+1)
	start := func(n int) {
		if n > maxStones {
			return
		}
		ch := make(chan solved, 1)
		rungs[n] = ch
		go func() {
			r, err := l.solve(n, engine)
			ch <- solved{r, err}
		}()
	}
	for n := 0; n < depth; n++ {
		start(n)
	}
	for n := 0; n <= maxStones; n++ {
		out := <-rungs[n]
		if out.err == nil {
			out.err = l.store(n, out.r)
		}
		if out.err != nil {
			// The rungs above n still in flight finish before Build returns.
			for _, ch := range rungs[n+1:] {
				if ch != nil {
					<-ch
				}
			}
			return nil, fmt.Errorf("ladder: rung %d: %w", n, out.err)
		}
		if onRung != nil {
			onRung(n, out.r)
		}
		start(n + depth)
	}
	return l, nil
}

// solved is one rung's outcome, handed from its solving goroutine to Build.
type solved struct {
	r   *ra.Result
	err error
}

// lookahead is the number of rungs Build keeps in flight under engine: two
// for the ra engines whose Solve is reentrant, one for any other, since a
// foreign engine may hold a single-goroutine tracer, a memory cap sized for
// one rung or a shared checkpoint directory.
func lookahead(engine ra.Engine) int {
	switch engine.(type) {
	case ra.Sequential, ra.Concurrent, ra.Distributed:
		return 2
	}
	return 1
}

// store records rung n, refining it first when the ladder refines.
func (l *Ladder) store(n int, r *ra.Result) error {
	if l.cfg.Refine {
		st := ra.Refine(l.Slice(n), r, l.cfg.RefineSweeps)
		if !st.Converged {
			return fmt.Errorf("refinement did not converge within %d sweeps", st.Sweeps)
		}
		l.refined[n] = st
	}
	l.results[n] = r
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
	if n > len(l.results) {
		return nil, fmt.Errorf("ladder: rung %d requires rungs 0..%d first", n, n-1)
	}
	return l.solve(n, engine)
}

// solve solves rung n against the ladder's lookup, which must already hold
// rungs 0..n-2.
func (l *Ladder) solve(n int, engine ra.Engine) (*ra.Result, error) {
	slice, err := awari.NewSlice(l.cfg.Rules, l.cfg.Loop, n, l.Lookup)
	if err != nil {
		return nil, err
	}
	return engine.Solve(slice)
}

// MaxStones returns the largest finished rung, or -1 for an empty ladder.
func (l *Ladder) MaxStones() int { return len(l.results) - 1 }

// Config returns the ladder's configuration.
func (l *Ladder) Config() Config { return l.cfg }

// Lookup returns the database value of position idx of the stones-stone
// rung; it satisfies awari.Lookup.
func (l *Ladder) Lookup(stones int, idx uint64) game.Value {
	return l.results[stones].Values[idx]
}

// Result returns the finished analysis of one rung.
func (l *Ladder) Result(stones int) *ra.Result { return l.results[stones] }

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
