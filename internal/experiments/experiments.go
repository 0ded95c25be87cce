// Package experiments regenerates the paper's evaluation: one function
// per table/figure (experiment ids E1–E6, E8, E9, E12, V1 and ablations
// A1–A4, defined in DESIGN.md — the source text preserves only the
// abstract, so the ids are this reproduction's, each mapped to an abstract
// claim). The functions return render-ready tables; cmd/rabench prints
// them and bench_test.go wraps them as benchmarks. Host wall-clock
// timing with repeated runs lives in the bench module, not here.
package experiments

import (
	"fmt"

	"retrograde/internal/awari"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
)

// Scale sets how large the measured runs are. The experiments' shapes are
// scale-invariant; bigger scales take longer and show smoother curves.
type Scale struct {
	// Stones is the headline awari database the timing experiments build
	// (the paper's was computed on 64 processors in 50 minutes).
	Stones int
	// Procs is the processor-count sweep (the paper used up to 64).
	Procs []int
	// CombineSizes is the combining-buffer sweep for E4/E5.
	CombineSizes []int
	// Rules and Loop select the awari variant.
	Rules awari.Rules
	Loop  awari.LoopRule
}

// Quick is the scale used by the test suite: seconds, not minutes.
func Quick() Scale {
	return Scale{
		Stones:       7,
		Procs:        []int{1, 2, 4, 8},
		CombineSizes: []int{1, 8, 64},
		Loop:         awari.LoopOwnSide,
	}
}

// Default is the scale used by cmd/rabench: the full 1..64 processor
// sweep of the paper. The database must be large enough that every node
// has real per-wave work at 64 processors (the paper's databases had
// millions of positions), hence the 11-stone rung (1.35M positions).
func Default() Scale {
	return Scale{
		Stones:       11,
		Procs:        []int{1, 2, 4, 8, 16, 32, 64},
		CombineSizes: []int{1, 8, 64, 256, 1024},
		Loop:         awari.LoopOwnSide,
	}
}

// Large is Default on a bigger database (cmd/rabench -large).
func Large() Scale {
	s := Default()
	s.Stones = 12
	return s
}

// Env carries the shared state the experiments need: the ladder of
// databases below the headline rung (built once) and the headline slice.
type Env struct {
	Scale  Scale
	Ladder *ladder.Ladder
}

// NewEnv builds the sub-databases for the scale's headline rung using the
// shared-memory engine (fast wall-clock), reporting progress through
// onRung if non-nil.
func NewEnv(s Scale, onRung func(stones int, r *ra.Result)) (*Env, error) {
	if s.Stones < 1 {
		return nil, fmt.Errorf("experiments: scale needs at least 1 stone, got %d", s.Stones)
	}
	cfg := ladder.Config{Rules: s.Rules, Loop: s.Loop}
	l, err := ladder.Build(cfg, s.Stones-1, ra.Concurrent{}, onRung)
	if err != nil {
		return nil, err
	}
	return &Env{Scale: s, Ladder: l}, nil
}

// Headline returns the headline rung as a game, wired to the ladder.
func (e *Env) Headline() *awari.Slice { return e.Ladder.Slice(e.Scale.Stones) }

// solveDistributed runs the headline rung on the simulated cluster.
func (e *Env) solveDistributed(cfg ra.Distributed) (*ra.Result, *ra.SimReport, error) {
	return cfg.SolveDetailed(e.Headline())
}
