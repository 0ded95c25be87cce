package experiments

import (
	"fmt"

	"retrograde/internal/ra"
	"retrograde/internal/remote"
	"retrograde/internal/stats"
)

// E8RealWire runs the algorithm over real TCP sockets (package remote):
// message combining measured on an actual wire rather than the simulated
// one. Frame and byte counts are exact. The databases are cross-checked
// against the sequential engine.
func E8RealWire(env *Env) (*stats.Table, error) {
	slice := env.Headline()
	want := ra.SolveSequential(slice)
	t := stats.NewTable(
		fmt.Sprintf("E8: real TCP mesh (awari-%d, 4 nodes over loopback)", env.Scale.Stones),
		"updates/frame", "data frames", "wire bytes", "check")
	for _, batch := range []int{1, 16, 256, 4096} {
		res, rep, err := remote.Engine{Workers: 4, Batch: batch}.SolveDetailed(slice)
		if err != nil {
			return nil, err
		}
		check := "identical to sequential"
		for i := range want.Values {
			if res.Values[i] != want.Values[i] {
				check = "MISMATCH"
				break
			}
		}
		t.Row(batch,
			stats.Count(rep.DataFrames),
			stats.Bytes(rep.Bytes),
			check)
	}
	t.Note("combining on a real network stack: fewer frames, fewer bytes (framing amortised), same database")
	return t, nil
}
