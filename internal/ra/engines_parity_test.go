// Parity tests that need games from packages which themselves import ra
// (kalah's ladder) live in the external test package to avoid an import
// cycle.
package ra_test

import (
	"testing"

	"retrograde/internal/game"
	"retrograde/internal/kalah"
	"retrograde/internal/nim"
	"retrograde/internal/ra"
	"retrograde/internal/ttt"
)

// TestHotPathEngineParity is the acceptance gate for the packed-state /
// pooled-batch / self-delivery hot path: the unbatched ablation
// (Batch: 1), the default pooled configuration, and a many-shard split
// must all produce bit-identical databases to Sequential on ttt, nim and
// kalah.
func TestHotPathEngineParity(t *testing.T) {
	lad, err := kalah.BuildLadder(4, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []game.Game{
		ttt.New(),
		nim.MustNew(3, 4),
		lad.Slice(4),
	} {
		want, err := (ra.Sequential{}).Solve(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		for _, cfg := range []ra.Engine{
			ra.Batched{Concurrent: ra.Concurrent{Workers: 3}, Batch: 1}, // unbatched ablation
			ra.Concurrent{Workers: 4},                                   // pooled default
			ra.Batched{Concurrent: ra.Concurrent{Workers: 9}, Batch: 8}, // many shards, tiny batches: heavy pool churn
		} {
			got, err := cfg.Solve(g)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name(), cfg.Name(), err)
			}
			if len(got.Values) != len(want.Values) {
				t.Fatalf("%s %s: length mismatch", g.Name(), cfg.Name())
			}
			for i := range want.Values {
				if got.Values[i] != want.Values[i] {
					t.Fatalf("%s %s: values differ at %d", g.Name(), cfg.Name(), i)
				}
			}
			for i := range want.Loop {
				if got.Loop[i] != want.Loop[i] {
					t.Fatalf("%s %s: loop bitsets differ at word %d", g.Name(), cfg.Name(), i)
				}
			}
			if got.Waves != want.Waves {
				t.Errorf("%s %s: waves %d vs %d", g.Name(), cfg.Name(), got.Waves, want.Waves)
			}
		}
	}
}
