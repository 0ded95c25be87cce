package ra

import (
	"time"

	"retrograde/internal/game"
)

// Result is a finished retrograde analysis: the full value table plus
// counters describing how the computation went.
type Result struct {
	// Values holds the final value of every position, indexed globally.
	Values []game.Value
	// Waves is the number of propagation waves (iterations) needed before
	// quiescence, excluding initialisation and loop resolution.
	Waves int
	// LoopPositions is the number of positions resolved by the loop rule
	// (never determined by propagation).
	LoopPositions uint64
	// Loop is a bitset over global indices marking loop-resolved positions.
	Loop []uint64
	// Workers holds per-shard work counters.
	Workers []WorkerStats
	// Kernel names the wave kernel that produced the result ("scalar" or
	// "swar"); both kernels produce bit-identical databases.
	Kernel string
	// Sim holds the simulation report when the Distributed engine
	// produced this result; nil otherwise.
	Sim *SimReport
	// Phases is the wall-clock split of the solve, one entry per
	// goroutine of the host driver (Sequential, Concurrent and the
	// out-of-core engine); nil for the wire engines.
	Phases []ShardPhases
}

// ShardPhases is where one goroutine of the host driver spent a solve.
// The clocks are consecutive intervals of that goroutine, so they sum to
// its wall time; a goroutine that finishes a phase early shows the
// difference as Barrier. Time an out-of-core residency spends loading a
// block is charged to the phase that asked for it.
type ShardPhases struct {
	Init    time.Duration // forward move generation and state packing
	Expand  time.Duration // queue promotion, predecessor generation, inline and outbound updates
	Apply   time.Duration // applying update runs received from peers
	Post    time.Duration // blocked sending to a peer whose inbox is full
	Barrier time.Duration // waiting for peers at a wave boundary
	Loops   time.Duration // loop resolution
	Fill    time.Duration // copying values and loop bits into the result
}

// phaseClock charges consecutive intervals of one goroutine's wall time
// to the clocks of a ShardPhases. It is this package's only reader of the
// wall clock: what it measures is reported beside the database and never
// feeds values, queues or snapshots.
type phaseClock struct{ mark time.Time }

func startPhaseClock() phaseClock { return phaseClock{mark: wallNow()} }

// lap charges the time since the previous lap (or the start) to phase.
func (c *phaseClock) lap(phase *time.Duration) {
	now := wallNow()
	*phase += now.Sub(c.mark)
	c.mark = now
}

func wallNow() time.Time {
	return time.Now() //ravet:ignore detrand phase clocks are reported beside the result and never reach values, queues or snapshots
}

// Value returns the value of a position.
func (r *Result) Value(idx uint64) game.Value { return r.Values[idx] }

// IsLoop reports whether a position was resolved by the loop rule.
func (r *Result) IsLoop(idx uint64) bool {
	return r.Loop[idx/64]&(1<<(idx%64)) != 0
}

// NewResult allocates the result of a solve over part that quiesced after
// waves propagation waves. It is complete once every worker of the
// partition has been passed to Collect.
func NewResult(part *Partition, waves int) *Result {
	return &Result{
		Values:  make([]game.Value, part.Size()),
		Waves:   waves,
		Loop:    make([]uint64, (part.Size()+63)/64),
		Workers: make([]WorkerStats, part.Workers()),
	}
}

// Collect folds one worker into the result: its values, loop set, work
// counters and kernel. The worker must have resolved its loops and hold
// its state in core. Collect calls must not overlap: they share the
// counters, and loop-bitset words unless the group is a multiple of 64 —
// the condition under which the host driver's goroutines Fill and
// FillLoop their shards in parallel and fold only the counters here.
func (r *Result) Collect(w *Worker) {
	w.Fill(r.Values)
	w.FillLoop(r.Loop)
	r.collectStats(w)
}

// collectStats is the part of Collect that is not per-position.
func (r *Result) collectStats(w *Worker) {
	r.Workers[w.ID()] = w.Stats
	r.LoopPositions += w.Stats.LoopResolved
	r.Kernel = w.Kernel().String()
}

// Totals sums the per-worker statistics.
func (r *Result) Totals() WorkerStats {
	var t [statsWordCount]uint64
	for i := range r.Workers {
		for j, x := range r.Workers[i].Words() {
			t[j] += x
		}
	}
	return StatsFromWords(t)
}

// SolveSequential runs retrograde analysis on a single scalar-kernel
// worker — the uniprocessor baseline the paper's 40-hour measurement
// refers to. The Sequential engine (which defaults to KernelAuto) is the
// configurable front door; this function stays pinned to the scalar
// kernel so baselines remain comparable across PRs.
func SolveSequential(g game.Game) *Result {
	r, err := Sequential{Config: Config{Kernel: KernelScalar}}.Solve(g)
	if err != nil {
		// KernelScalar never fails to construct; Init errors are game-
		// construction bugs (game.Validate reports them as errors).
		panic(err)
	}
	return r
}
