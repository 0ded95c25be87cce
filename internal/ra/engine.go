package ra

import (
	"errors"

	"retrograde/internal/game"
)

// ErrPaused is returned by a solve that stopped early because its
// StopAfterWaves budget was reached; the state left on disk continues the
// run.
var ErrPaused = errors.New("ra: analysis paused at a checkpoint")

// Engine solves a game by retrograde analysis. Every implementation —
// Sequential, Concurrent and Distributed (wave-synchronous or, with Async
// set, barrier-free) here, remote.Engine and oocore.Engine in their own
// packages — drives the same Worker and computes bit-identical results
// (an async run's WDL depths excepted, see Distributed).
type Engine interface {
	// Name identifies the engine configuration for reports.
	Name() string
	// Solve runs retrograde analysis over the game's full position space.
	Solve(g game.Game) (*Result, error)
}

// Sequential is the single-worker baseline engine — the paper's
// uniprocessor measurement: the host driver with one goroutine holding
// one shard. The zero value picks the wave kernel automatically
// (bit-parallel for eligible games, scalar otherwise); Config pins one
// explicitly.
type Sequential struct {
	Config Config
}

// Name implements Engine.
func (Sequential) Name() string { return "sequential" }

// Solve implements Engine.
func (s Sequential) Solve(g game.Game) (*Result, error) {
	return solveInCore(g, Cyclic(g.Size(), 1), s.Config.Kernel, hostBatch)
}
