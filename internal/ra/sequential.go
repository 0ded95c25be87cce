package ra

import "retrograde/internal/game"

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
// its state in core — the only moment the out-of-core engine can offer a
// block, which is why assembly is one worker at a time. Workers of one
// solve share loop-bitset words, so Collect calls must not overlap.
func (r *Result) Collect(w *Worker) {
	w.Fill(r.Values)
	w.FillLoop(r.Loop)
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
	r, err := solveSequential(g, KernelScalar)
	if err != nil {
		// KernelScalar never fails to construct; Init errors are game-
		// construction bugs (game.Validate reports them as errors).
		panic(err)
	}
	return r
}

// solveSequential runs the single-worker solve under the given kernel.
func solveSequential(g game.Game, k Kernel) (*Result, error) {
	part := Cyclic(g.Size(), 1)
	w, err := NewWorkerKernel(g, part, 0, k)
	if err != nil {
		return nil, err
	}
	if _, err := w.Init(); err != nil {
		return nil, err
	}
	waves := 0
	for w.BeginWave() > 0 {
		waves++
		// Single shard: every edge is self-owned and applied inline.
		w.ExpandRuns(0, nil)
	}
	w.ResolveLoops()
	r := NewResult(part, waves)
	r.Collect(w)
	return r, nil
}
