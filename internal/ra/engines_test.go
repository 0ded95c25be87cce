package ra

import (
	"fmt"
	"testing"

	"retrograde/internal/chess"
	"retrograde/internal/game"
	"retrograde/internal/nim"
	"retrograde/internal/ttt"
)

// sameResult compares the parts of two results that must be bit-identical
// across engines: values, loop bitsets, wave counts, loop counts.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Values) != len(b.Values) {
		t.Fatalf("%s: value lengths %d vs %d", label, len(a.Values), len(b.Values))
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("%s: values differ at %d: %d vs %d", label, i, a.Values[i], b.Values[i])
		}
	}
	for i := range a.Loop {
		if a.Loop[i] != b.Loop[i] {
			t.Fatalf("%s: loop bitsets differ at word %d", label, i)
		}
	}
	if a.Waves != b.Waves {
		t.Errorf("%s: waves %d vs %d", label, a.Waves, b.Waves)
	}
	if a.LoopPositions != b.LoopPositions {
		t.Errorf("%s: loop positions %d vs %d", label, a.LoopPositions, b.LoopPositions)
	}
}

// oracleGames returns the validation games used across engine tests:
// Nim (acyclic, all-internal), tic-tac-toe (terminals of both kinds) and
// KRK chess (cycles resolved as draws, external capture exits).
func oracleGames() []game.Game {
	return []game.Game{
		nim.MustNew(3, 4),
		nim.MustNew(2, 7),
		ttt.New(),
		chess.MustNew(4),
	}
}

// TestConcurrentMatchesSequential runs the shared-memory engine across
// worker counts and batch sizes and requires bit-identical databases.
func TestConcurrentMatchesSequential(t *testing.T) {
	for _, g := range oracleGames() {
		want := SolveSequential(g)
		for _, cfg := range []struct {
			workers, batch int
		}{
			{1, hostBatch},
			{2, hostBatch},
			{3, 1},
			{4, 16},
			{7, 1000},
			{16, hostBatch},
		} {
			e := Concurrent{Workers: cfg.workers}
			label := fmt.Sprintf("%s %s batch=%d", g.Name(), e.Name(), cfg.batch)
			got, err := e.solve(g, cfg.batch)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameResult(t, label, want, got)
		}
	}
}

// TestDistributedMatchesSequential runs the simulated-cluster engine
// across node counts, combining sizes and network models and requires
// bit-identical databases.
func TestDistributedMatchesSequential(t *testing.T) {
	for _, g := range oracleGames() {
		want := SolveSequential(g)
		for _, cfg := range []Distributed{
			{Workers: 1},
			{Workers: 2, Combine: 1},
			{Workers: 4, Combine: 64},
			{Workers: 5, Combine: 10, Group: 16},
			{Workers: 8, Network: CrossbarNet},
			{Workers: 8, Network: CrossbarNet, Combine: 1},
			{Workers: 13},
			{Workers: 9, Protocol: TreeProtocol},
			{Workers: 8, Protocol: TreeProtocol, Network: CrossbarNet, Combine: 4},
		} {
			got, err := cfg.Solve(g)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name(), cfg.Name(), err)
			}
			sameResult(t, g.Name()+" "+cfg.Name(), want, got)
			if got.Kernel != want.Kernel {
				t.Errorf("%s %s: result names kernel %q, want %q", g.Name(), cfg.Name(), got.Kernel, want.Kernel)
			}
		}
	}
}

// TestDistributedDeterministic requires identical virtual end times and
// traffic across repeated runs.
func TestDistributedDeterministic(t *testing.T) {
	g := nim.MustNew(3, 3)
	cfg := Distributed{Workers: 4, Combine: 8}
	_, ra_, err := cfg.SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	_, rb, err := cfg.SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	if ra_.Duration != rb.Duration {
		t.Errorf("durations differ: %v vs %v", ra_.Duration, rb.Duration)
	}
	if ra_.Net.Messages != rb.Net.Messages || ra_.Net.Wire != rb.Net.Wire {
		t.Errorf("traffic differs: %+v vs %+v", ra_.Net, rb.Net)
	}
	if ra_.Events != rb.Events {
		t.Errorf("event counts differ: %d vs %d", ra_.Events, rb.Events)
	}
}

// TestCombiningReducesMessagesAndTime is the paper's headline effect in
// miniature: combining must cut data messages by roughly the combining
// factor and must make the simulated run faster.
func TestCombiningReducesMessagesAndTime(t *testing.T) {
	g := ttt.New()
	_, naive, err := Distributed{Workers: 8, Combine: 1}.SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	_, combined, err := Distributed{Workers: 8, Combine: 100}.SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	if combined.DataMessages*10 > naive.DataMessages {
		t.Errorf("combining reduced messages only from %d to %d", naive.DataMessages, combined.DataMessages)
	}
	if combined.Duration*2 > naive.Duration {
		t.Errorf("combining reduced time only from %v to %v", naive.Duration, combined.Duration)
	}
	if f := combined.Combining.Factor(); f < 5 {
		t.Errorf("combining factor %.1f, want >= 5", f)
	}
	// Both runs move the same number of updates.
	if naive.Combining.Items != combined.Combining.Items {
		t.Errorf("update counts differ: %d vs %d", naive.Combining.Items, combined.Combining.Items)
	}
}

// TestDistributedSpeedupShape checks that adding nodes reduces virtual
// time on a compute-heavy workload (the speedup direction of E3).
func TestDistributedSpeedupShape(t *testing.T) {
	g := ttt.New()
	t1, err := Distributed{Workers: 1}.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Distributed{Workers: 8}.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	s := t1.Sim.Duration.Seconds() / t8.Sim.Duration.Seconds()
	if s < 3 {
		t.Errorf("8-node speedup %.2f, want >= 3", s)
	}
	if s > 8.5 {
		t.Errorf("8-node speedup %.2f exceeds linear", s)
	}
}

// TestSimReportConsistency cross-checks the traffic accounting.
func TestSimReportConsistency(t *testing.T) {
	g := nim.MustNew(3, 3)
	res, rep, err := Distributed{Workers: 4, Combine: 16}.SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim != rep {
		t.Error("Result.Sim is not the returned report")
	}
	// Every update is either applied locally or carried by a data message.
	totals := res.Totals()
	if totals.UpdatesApplied != totals.PredsGenerated {
		t.Errorf("updates applied %d != generated %d", totals.UpdatesApplied, totals.PredsGenerated)
	}
	if rep.Combining.Items != totals.PredsGenerated {
		t.Errorf("combining items %d != generated updates %d", rep.Combining.Items, totals.PredsGenerated)
	}
	// Node CPU time is positive on all nodes.
	for i, ns := range rep.Nodes {
		if ns.Busy == 0 {
			t.Errorf("node %d never busy", i)
		}
	}
	if rep.Duration <= 0 || rep.Events == 0 {
		t.Errorf("implausible report: %+v", rep)
	}
}

// TestDistributedSingleNodeNoNetworkData checks that a 1-node cluster
// sends no data messages (everything is local).
func TestDistributedSingleNodeNoNetworkData(t *testing.T) {
	g := nim.MustNew(2, 5)
	_, rep, err := Distributed{Workers: 1}.SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Net.Messages != 0 {
		t.Errorf("1-node run put %d messages on the wire", rep.Net.Messages)
	}
}

func TestEngineNames(t *testing.T) {
	cases := []struct {
		e    Engine
		want string
	}{
		{Sequential{}, "sequential"},
		{Concurrent{Workers: 4}, "concurrent(p=4)"},
		{Distributed{Workers: 16, Combine: 10}, "distributed(p=16,combine=10,net=ethernet)"},
		{Distributed{Workers: 2, Network: CrossbarNet}, "distributed(p=2,combine=100,net=crossbar)"},
		{Distributed{Workers: 3, Async: true}, "async(p=3,combine=100,net=ethernet)"},
	}
	for _, c := range cases {
		if got := c.e.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
	if NetworkKind(9).String() != "NetworkKind(9)" || Protocol(9).String() != "Protocol(9)" {
		t.Error("unknown enum String mismatch")
	}
	if CentralProtocol.String() != "central" || TreeProtocol.String() != "tree" {
		t.Error("Protocol.String mismatch")
	}
}
