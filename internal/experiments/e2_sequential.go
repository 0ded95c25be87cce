package experiments

import (
	"retrograde/internal/ra"
	"retrograde/internal/stats"
)

// E2Sequential reproduces the paper's uniprocessor baseline ("one machine
// took 40 hours"): sequential retrograde analysis per database rung, with
// the virtual time of the same run on one simulated 1995-era node. The
// virtual column is the baseline of the E3 speedups. Host timing of the
// same scalar solve lives in the bench module (rung13-scalar).
func E2Sequential(env *Env) (*stats.Table, error) {
	t := stats.NewTable(
		"E2: sequential baseline per rung",
		"stones", "positions", "waves", "loop pos", "virtual 1995 time")
	t.Kernel = "scalar" // SolveSequential is pinned to the scalar kernel
	lo := env.Scale.Stones - 3
	if lo < 1 {
		lo = 1
	}
	for n := lo; n <= env.Scale.Stones; n++ {
		slice := env.Ladder.Slice(n)
		res := ra.SolveSequential(slice)
		vres, vrep, err := ra.Distributed{Workers: 1}.SolveDetailed(slice)
		if err != nil {
			return nil, err
		}
		// The two engines must agree (cheap online cross-check).
		for i := range res.Values {
			if res.Values[i] != vres.Values[i] {
				t.Note("WARNING: sequential and 1-node distributed disagree on rung %d", n)
				break
			}
		}
		t.Row(n,
			stats.Count(slice.Size()),
			res.Waves,
			stats.Count(res.LoopPositions),
			vrep.Duration.String())
	}
	t.Note("virtual time uses the calibrated 1995 cost model (see EXPERIMENTS.md); the paper's 40-hour run is a ~19-stone database under this model")
	return t, nil
}
