package ra

import (
	"testing"

	"retrograde/internal/game"
	"retrograde/internal/nim"
	"retrograde/internal/ttt"
)

// TestAsyncOutcomesMatchOnWDLGames: asynchrony reorders update
// application, which WDL values' distance part notices, so only outcomes
// and loop counts must match the sequential engine. Awari-style score
// values are order-insensitive and must match exactly; that test lives in
// package ladder (which can build slices).
func TestAsyncOutcomesMatchOnWDLGames(t *testing.T) {
	for _, g := range []game.Game{nim.MustNew(3, 4), ttt.New()} {
		want := SolveSequential(g)
		for _, cfg := range []Distributed{
			{Workers: 1, Async: true},
			{Workers: 3, Combine: 8, Async: true},
			{Workers: 5, Combine: 1, Async: true},
			{Workers: 8, Network: CrossbarNet, Async: true},
			{Workers: 6, Protocol: TreeProtocol, Async: true},
		} {
			got, err := cfg.Solve(g)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name(), cfg.Name(), err)
			}
			// Outcomes must agree everywhere; depths may differ (update
			// application is not level-synchronous).
			for idx := range want.Values {
				wo := game.WDLOutcome(want.Values[idx])
				go_ := game.WDLOutcome(got.Values[idx])
				if wo != go_ {
					t.Fatalf("%s %s: outcome differs at %d: %v vs %v", g.Name(), cfg.Name(), idx, go_, wo)
				}
			}
			if got.LoopPositions != want.LoopPositions {
				t.Errorf("%s %s: loop positions %d vs %d", g.Name(), cfg.Name(), got.LoopPositions, want.LoopPositions)
			}
			if got.Kernel != want.Kernel {
				t.Errorf("%s %s: result names kernel %q, want %q", g.Name(), cfg.Name(), got.Kernel, want.Kernel)
			}
		}
	}
}

// TestAsyncDeterministic: the simulation is single-threaded, so repeated
// runs give identical traces.
func TestAsyncDeterministic(t *testing.T) {
	g := nim.MustNew(3, 3)
	cfg := Distributed{Workers: 4, Combine: 8, Async: true}
	_, a, err := cfg.SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := cfg.SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Events != b.Events || a.Net.Messages != b.Net.Messages {
		t.Errorf("async runs differ: %+v vs %+v", a, b)
	}
}

// TestAsyncProbeRounds sanity-checks the Safra machinery: at least two
// probe rounds, and no data message left unaccounted (the engine would
// stall otherwise, failing the run).
func TestAsyncProbeRounds(t *testing.T) {
	g := ttt.New()
	res, rep, err := (Distributed{Workers: 6, Async: true}).SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Waves < 2 { // probe rounds are reported in Waves for async runs
		t.Errorf("only %d probe rounds", res.Waves)
	}
	if rep.ProtocolMessages == 0 {
		t.Error("no protocol messages counted")
	}
	totals := res.Totals()
	if totals.UpdatesApplied != totals.PredsGenerated {
		t.Errorf("updates applied %d != generated %d", totals.UpdatesApplied, totals.PredsGenerated)
	}
}

// TestAsyncNoBarriers: the async mode should send far fewer protocol
// messages than the synchronous engine on a wave-heavy workload.
func TestAsyncNoBarriers(t *testing.T) {
	g := ttt.New()
	_, sync_, err := (Distributed{Workers: 8}).SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	_, async, err := (Distributed{Workers: 8, Async: true}).SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	if async.ProtocolMessages >= sync_.ProtocolMessages {
		t.Errorf("async protocol messages %d >= synchronous %d", async.ProtocolMessages, sync_.ProtocolMessages)
	}
}
