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
// headline rung; the second extrapolates to paper-scale databases
// arithmetically (shard sizes are exact, bytes/position is the measured
// uniprocessor figure).
func E6Memory(env *Env) ([]*stats.Table, error) {
	measured := stats.NewTable(
		fmt.Sprintf("E6a: measured working set after a full solve (awari-%d)", env.Scale.Stones),
		"procs", "max node working set", "sum over nodes", "vs uniprocessor")
	slice := env.Headline()
	var uni uint64
	for _, p := range env.Scale.Procs {
		shards, err := solveShards(slice, p)
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
		measured.Row(p, stats.Bytes(maxWS), stats.Bytes(sum), fmt.Sprintf("1/%.1f", float64(uni)/float64(maxWS)))
	}
	measured.Note("working set = packed state words plus wave-queue capacity per shard once the solve is done; the loop set is a state pattern and costs 0 B")

	perPos := float64(uni) / float64(slice.Size())
	extrap := stats.NewTable(
		fmt.Sprintf("E6b: extrapolated working sets at paper scale (%.2f bytes/position, E6a's uniprocessor)", perPos),
		"stones", "positions", "uniprocessor", "per node at 64 procs", "fits 64 MiB node?")
	for _, n := range []int{13, 15, 17, 19, 21, 22, 23} {
		size := awari.Size(n)
		uniWS := uint64(float64(size) * perPos)
		per := uint64(float64(size/64+1) * perPos)
		fits := "yes"
		if per > 64<<20 {
			fits = "no"
		}
		extrap.Row(n, stats.Count(size), stats.Bytes(uniWS), stats.Bytes(per), fits)
	}
	extrap.Note("the paper's >600 MByte database is infeasible on one 1995 machine but its 1/64 shard fits easily")
	return []*stats.Table{measured, extrap}, nil
}

// solveShards solves g on p scalar shards, routing every update run to its
// owner by hand, and returns the finished workers so E6 can measure what
// each one holds.
func solveShards(g game.Game, p int) ([]*ra.Worker, error) {
	part := ra.Cyclic(g.Size(), p)
	ws := make([]*ra.Worker, p)
	for i := range ws {
		ws[i] = ra.NewWorker(g, part, i)
		if _, err := ws[i].Init(); err != nil {
			return nil, err
		}
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
