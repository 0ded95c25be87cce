package main

import (
	"math/rand"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/combine"
	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// Layer probes: each drives one layer's public functions with no worker
// or server around them, so a layer's own cost can be read next to the
// workload it is part of.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// runChunk is the run length of the batched generator sweeps: the SWAR
// worker's own bound on one batched call.
const runChunk = 1024

// runSweep sums the time of awari's run-batched generators over whole
// slices.
type runSweep struct {
	initS, predsS, loopS float64
}

func (s *runSweep) add(o runSweep) {
	s.initS += o.initS
	s.predsS += o.predsS
	s.loopS += o.loopS
}

func (s runSweep) report(res *result, positions uint64) {
	perPos := 1e9 / float64(positions)
	res.set("awari.init_run_ns_per_pos", s.initS*perPos)
	res.set("awari.preds_run_ns_per_pos", s.predsS*perPos)
	res.set("awari.loop_values_run_ns_per_pos", s.loopS*perPos)
}

// sweepRuns calls InitRun, PredecessorsRun and LoopValuesRun over every
// position of the slice, in worker-sized runs.
func sweepRuns(s *awari.Slice) runSweep {
	size := s.Size()
	chunks := func(f func(base uint64, n int)) float64 {
		t0 := time.Now()
		for base := uint64(0); base < size; base += runChunk {
			f(base, int(min(runChunk, size-base)))
		}
		return time.Since(t0).Seconds()
	}
	var out runSweep
	stats := make([]game.InitStat, runChunk)
	out.initS = chunks(func(base uint64, n int) {
		s.InitRun(base, n, stats[:n])
		sink += uint64(stats[0].Moves)
	})
	out.predsS = chunks(func(base uint64, n int) {
		s.PredecessorsRun(base, n, func(_ int, preds []uint64) { sink += uint64(len(preds)) })
	})
	values := make([]game.Value, runChunk)
	out.loopS = chunks(func(base uint64, n int) {
		s.LoopValuesRun(base, n, values[:n])
		sink += uint64(values[0])
	})
	return out
}

// scalarSweep holds the per-position generator costs in ns.
type scalarSweep struct {
	movesNS, predsNS, loopNS float64
}

func (s scalarSweep) report(res *result) {
	res.set("awari.moves_ns_per_pos", s.movesNS)
	res.set("awari.preds_ns_per_pos", s.predsNS)
	res.set("awari.loop_value_ns_per_pos", s.loopNS)
}

// sweepScalar calls Moves, Predecessors and LoopValue on an evenly strided
// sample of the slice: the per-position calls do not depend on their
// neighbours, so a stride is unbiased and keeps the traced run short.
func sweepScalar(s *awari.Slice) scalarSweep {
	const sample = 1 << 17
	size := s.Size()
	stride := max(1, size/sample)
	n := float64((size + stride - 1) / stride)
	perPos := func(f func(idx uint64)) float64 {
		t0 := time.Now()
		for idx := uint64(0); idx < size; idx += stride {
			f(idx)
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	}
	var out scalarSweep
	var moves []game.Move
	out.movesNS = perPos(func(idx uint64) {
		moves = s.Moves(idx, moves[:0])
		sink += uint64(len(moves))
	})
	var preds []uint64
	out.predsNS = perPos(func(idx uint64) {
		preds = s.Predecessors(idx, preds[:0])
		sink += uint64(len(preds))
	})
	out.loopNS = perPos(func(idx uint64) { sink += uint64(s.LoopValue(idx)) })
	return out
}

// indexProbe times the position codec of one rung on random indices.
func indexProbe(stones int, seed int64) (rankNS, unrankNS float64) {
	const n = 1 << 16
	space := awari.Space(stones)
	rng := rand.New(rand.NewSource(seed))
	idx := make([]uint64, n)
	for i := range idx {
		idx[i] = uint64(rng.Int63n(int64(space.Size())))
	}
	pits := make([][awari.Pits]int, n)
	t0 := time.Now()
	for i, x := range idx {
		space.Unrank(x, pits[i][:])
	}
	unrankNS = float64(time.Since(t0).Nanoseconds()) / n
	t0 = time.Now()
	for i := range pits {
		sink += space.Rank(pits[i][:])
	}
	rankNS = float64(time.Since(t0).Nanoseconds()) / n
	return rankNS, unrankNS
}

// combineProbe times Buffer.Add, flushes included, per item: two
// destinations and the Concurrent engine's default batch of 256.
func combineProbe() float64 {
	const n = 1 << 22
	buf := combine.MustNew(2, 256, func(_ int, batch []ra.Update) { sink += uint64(len(batch)) })
	t0 := time.Now()
	for i := 0; i < n; i++ {
		buf.Add(i&1, ra.Update{Target: uint64(i)})
	}
	buf.FlushAll()
	return float64(time.Since(t0).Nanoseconds()) / n
}
