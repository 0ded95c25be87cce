package ladder

import (
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/ra"
)

// TestAwariEnginesAgree builds the awari ladder with all three engines and
// requires bit-identical databases — the strongest cross-validation in the
// suite, exercising captures (external moves), the feeding rule, and loop
// resolution under parallel propagation.
func TestAwariEnginesAgree(t *testing.T) {
	const maxStones = 7
	cfg := Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}
	want, err := Build(cfg, maxStones, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	engines := []ra.Engine{
		ra.Concurrent{Workers: 4},
		ra.Concurrent{Workers: 3},
		ra.Distributed{Workers: 4, Combine: 32},
		ra.Distributed{Workers: 6, Combine: 1},
		ra.Distributed{Workers: 5, Network: ra.CrossbarNet, Combine: 16},
	}
	for _, e := range engines {
		got, err := Build(cfg, maxStones, e, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for n := 0; n <= maxStones; n++ {
			a, b := want.Result(n).Values, got.Result(n).Values
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s rung %d: values differ at %d: %d vs %d", e.Name(), n, i, a[i], b[i])
				}
			}
			if want.Result(n).Waves != got.Result(n).Waves {
				t.Errorf("%s rung %d: waves %d vs %d", e.Name(), n, want.Result(n).Waves, got.Result(n).Waves)
			}
			if want.Result(n).LoopPositions != got.Result(n).LoopPositions {
				t.Errorf("%s rung %d: loop positions %d vs %d", e.Name(), n, want.Result(n).LoopPositions, got.Result(n).LoopPositions)
			}
		}
	}
}

// TestMixedEngineLadder builds lower rungs sequentially and the top rung
// with the distributed engine — the paper's actual methodology (small
// databases precomputed, the large one distributed).
func TestMixedEngineLadder(t *testing.T) {
	cfg := Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}
	l, err := Build(cfg, 6, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.SolveRung(7, ra.Sequential{})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := l.SolveRung(7, ra.Distributed{Workers: 8, Combine: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Values {
		if seq.Values[i] != dist.Values[i] {
			t.Fatalf("rung 7 values differ at %d", i)
		}
	}
	if dist.Sim == nil || dist.Sim.Duration <= 0 {
		t.Error("distributed rung carries no simulation report")
	}
}

// TestAsyncAwariExactEquality: awari's capture-count values are
// order-insensitive, so the asynchronous mode (Safra termination, no
// waves) must produce bit-identical databases.
func TestAsyncAwariExactEquality(t *testing.T) {
	cfg := Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}
	want, err := Build(cfg, 6, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []ra.Engine{
		ra.Distributed{Workers: 4, Combine: 16, Async: true},
		ra.Distributed{Workers: 7, Combine: 1, Async: true},
		ra.Distributed{Workers: 3, Network: ra.CrossbarNet, Protocol: ra.TreeProtocol, Async: true},
	} {
		got, err := Build(cfg, 6, eng, nil)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		for n := 0; n <= 6; n++ {
			a, b := want.Result(n).Values, got.Result(n).Values
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s rung %d: values differ at %d", eng.Name(), n, i)
				}
			}
			if want.Result(n).LoopPositions != got.Result(n).LoopPositions {
				t.Errorf("%s rung %d: loop counts differ", eng.Name(), n)
			}
		}
	}
}
