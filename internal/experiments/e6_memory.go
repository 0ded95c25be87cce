package experiments

import (
	"fmt"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/ra"
	"retrograde/internal/stats"
)

// E6Memory reproduces the paper's memory-scaling argument: the database
// that "would have required over 600 MByte of internal memory on a
// uniprocessor" fits once the position space is partitioned. The first
// table measures what each node holds at the end of a real solve of the
// headline rung under each wave kernel; the second extrapolates to
// paper-scale databases arithmetically (shard sizes are exact,
// bytes/position is each kernel's measured uniprocessor figure).
func E6Memory(env *Env) ([]*stats.Table, error) {
	measured := stats.NewTable(
		fmt.Sprintf("E6a: measured working set after a full solve (awari-%d)", env.Scale.Stones),
		"kernel", "procs", "max node working set", "sum over nodes", "vs uniprocessor")
	slice := env.Headline()
	kernels := []ra.Kernel{ra.KernelScalar, ra.KernelSWAR}
	var perPos [2]float64
	for k, kern := range kernels {
		var uni uint64
		for _, p := range env.Scale.Procs {
			shards, err := solveShards(slice, p, kern)
			if err != nil {
				return nil, err
			}
			var maxWS, sum uint64
			for _, w := range shards {
				ws := w.WorkingSetBytes()
				maxWS = max(maxWS, ws)
				sum += ws
			}
			if p == 1 {
				uni = maxWS
			}
			measured.Row(kern, p, stats.Bytes(maxWS), stats.Bytes(sum), fmt.Sprintf("1/%.1f", float64(uni)/float64(maxWS)))
		}
		perPos[k] = float64(uni) / float64(slice.Size())
	}
	measured.Note("working set = per-position state (a uint32 word under scalar, a lane byte under SWAR) plus wave-queue capacity per shard once the solve is done; the loop set is a state pattern and costs 0 B")

	extrap := stats.NewTable(
		fmt.Sprintf("E6b: extrapolated working sets at paper scale (scalar %.2f, SWAR %.2f bytes/position, E6a's uniprocessors)", perPos[0], perPos[1]),
		"stones", "positions", "scalar uniprocessor", "SWAR uniprocessor", "scalar per node at 64", "fits 64 MiB node?")
	for _, n := range []int{13, 15, 17, 19, 21, 22, 23} {
		size := awari.Size(n)
		per := uint64(float64(size/64+1) * perPos[0])
		fits := "yes"
		if per > 64<<20 {
			fits = "no"
		}
		extrap.Row(n, stats.Count(size), stats.Bytes(uint64(float64(size)*perPos[0])), stats.Bytes(uint64(float64(size)*perPos[1])), stats.Bytes(per), fits)
	}
	extrap.Note("the >600 MByte crossing (22 stones) is the scalar kernel's: rungs above 15 stones outgrow the 4-bit lane value and run scalar; the SWAR column is what 1-byte lanes would hold")
	extrap.Note("the paper's >600 MByte database is infeasible on one 1995 machine but its 1/64 shard fits easily")
	return []*stats.Table{measured, extrap}, nil
}

// solveShards solves g on p shards of kernel k, routing every update run
// to its owner by hand, and returns the finished workers so E6 can
// measure what each one holds.
func solveShards(g game.Game, p int, k ra.Kernel) ([]*ra.Worker, error) {
	part := ra.Cyclic(g.Size(), p)
	ws := make([]*ra.Worker, p)
	for i := range ws {
		w, err := ra.NewWorkerKernel(g, part, i, k)
		if err != nil {
			return nil, err
		}
		if _, err := w.Init(); err != nil {
			return nil, err
		}
		ws[i] = w
	}
	for {
		total := 0
		for _, w := range ws {
			total += w.BeginWave()
		}
		if total == 0 {
			break
		}
		for _, w := range ws {
			w.ExpandRuns(0, func(owner int, r ra.UpdateRun) { ws[owner].ApplyRun(r) })
		}
	}
	for _, w := range ws {
		w.ResolveLoops()
	}
	return ws, nil
}
