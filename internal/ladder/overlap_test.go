package ladder

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// serial hides an ra engine behind a type outside ra, so Build solves
// one rung at a time with it.
type serial struct{ ra.Engine }

// TestBuildOverlapMatchesSerial builds rungs 0..10 with two rungs in
// flight and one at a time under the same engine: values, loop bits,
// waves, per-worker counters and refinement statistics must all agree.
// Under Concurrent the stale-update count depends on the interleaving of
// the shards, as everywhere else, so it is exempt.
func TestBuildOverlapMatchesSerial(t *testing.T) {
	const top = 10
	engines := []ra.Engine{
		ra.Sequential{Config: ra.Config{Kernel: ra.KernelScalar}},
		ra.Sequential{Config: ra.Config{Kernel: ra.KernelSWAR}},
		ra.Concurrent{Workers: 2},
		ra.Distributed{Workers: 4},
	}
	for _, e := range engines {
		for _, refine := range []bool{false, true} {
			cfg := Config{Rules: awari.Standard, Loop: awari.LoopOwnSide, Refine: refine}
			want, err := Build(cfg, top, serial{e}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Build(cfg, top, e, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, stale := e.(ra.Concurrent)
			for n := 0; n <= top; n++ {
				a, b := want.Result(n), got.Result(n)
				name := fmt.Sprintf("%s refine=%v", e.Name(), refine)
				if !reflect.DeepEqual(a.Values, b.Values) {
					t.Fatalf("%s rung %d: values differ", name, n)
				}
				if !reflect.DeepEqual(a.Loop, b.Loop) || a.LoopPositions != b.LoopPositions {
					t.Errorf("%s rung %d: loop bits differ", name, n)
				}
				if a.Waves != b.Waves {
					t.Errorf("%s rung %d: waves %d vs %d", name, n, a.Waves, b.Waves)
				}
				if len(a.Workers) != len(b.Workers) {
					t.Fatalf("%s rung %d: %d vs %d workers", name, n, len(a.Workers), len(b.Workers))
				}
				for i := range a.Workers {
					ws, gs := a.Workers[i], b.Workers[i]
					if stale {
						ws.UpdatesStale, gs.UpdatesStale = 0, 0
					}
					if ws != gs {
						t.Errorf("%s rung %d worker %d: stats %+v vs %+v", name, n, i, ws, gs)
					}
				}
				if want.RefineStats(n) != got.RefineStats(n) {
					t.Errorf("%s rung %d: refine stats %+v vs %+v", name, n, want.RefineStats(n), got.RefineStats(n))
				}
			}
		}
	}
}

// counting is an engine outside ra that records how many of its Solve
// calls run at once.
type counting struct {
	inner             ra.Engine
	inFlight, maxSeen *atomic.Int32
}

func (c counting) Name() string { return "counting(" + c.inner.Name() + ")" }

func (c counting) Solve(g game.Game) (*ra.Result, error) {
	n := c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	for {
		m := c.maxSeen.Load()
		if n <= m || c.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	// Widen the window in which a second rung would be seen.
	time.Sleep(time.Millisecond)
	return c.inner.Solve(g)
}

// TestBuildSerialForForeignEngines: an engine this package cannot vouch
// for is never asked for two rungs at once, while the three reentrant ra
// engines keep two rungs in flight.
func TestBuildSerialForForeignEngines(t *testing.T) {
	e := counting{ra.Sequential{}, new(atomic.Int32), new(atomic.Int32)}
	if _, err := Build(Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 8, e, nil); err != nil {
		t.Fatal(err)
	}
	if m := e.maxSeen.Load(); m != 1 {
		t.Errorf("a foreign engine saw %d Solve calls at once, want 1", m)
	}
	for _, e := range []ra.Engine{ra.Sequential{}, ra.Concurrent{Workers: 2}, ra.Distributed{Workers: 4}, ra.Distributed{Async: true}} {
		if d := lookahead(e); d != 2 {
			t.Errorf("%s: lookahead %d, want 2", e.Name(), d)
		}
	}
	for _, e := range []ra.Engine{serial{ra.Sequential{}}, e, &ra.Sequential{}} {
		if d := lookahead(e); d != 1 {
			t.Errorf("%T: lookahead %d, want 1", e, d)
		}
	}
}

// failAt fails the rung of the given stone total and solves every other
// one with the inner engine.
type failAt struct {
	inner  ra.Engine
	stones int
}

var errInjected = errors.New("injected failure")

func (f failAt) Name() string { return "failAt" }

func (f failAt) Solve(g game.Game) (*ra.Result, error) {
	if g.(*awari.Slice).Stones() == f.stones {
		return nil, errInjected
	}
	return f.inner.Solve(g)
}

// TestBuildErrorWaitsForInFlightRung: a failing rung is reported by its
// number, onRung sees only the rungs below it, and Build returns only
// after the rung solved beside the failing one has finished. The
// reentrant case fails in refinement: under the even-split loop rule,
// rung 7 needs more than five sweeps, and its refinement runs with rung 8
// already in flight on an uncombined simulated cluster, which takes longer
// to solve it than the refinement takes to fail.
func TestBuildErrorWaitsForInFlightRung(t *testing.T) {
	base := runtime.NumGoroutine()
	const top, failing = 12, 7
	cases := []struct {
		name   string
		cfg    Config
		engine ra.Engine
		cause  func(error) bool
	}{
		{"engine error", Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, failAt{ra.Sequential{}, failing},
			func(err error) bool { return errors.Is(err, errInjected) }},
		{"refinement error", Config{Rules: awari.Standard, Loop: awari.LoopEvenSplit, Refine: true, RefineSweeps: 5}, ra.Distributed{Workers: 8, Combine: 1},
			func(err error) bool { return strings.Contains(err.Error(), "refinement did not converge") }},
	}
	for _, c := range cases {
		seen := -1
		_, err := Build(c.cfg, top, c.engine, func(n int, _ *ra.Result) { seen = n })
		if err == nil {
			t.Fatalf("%s: Build succeeded", c.name)
		}
		if prefix := fmt.Sprintf("ladder: rung %d: ", failing); !strings.HasPrefix(err.Error(), prefix) || !c.cause(err) {
			t.Errorf("%s: error %q, want %q and its cause", c.name, err, prefix)
		}
		if seen != failing-1 {
			t.Errorf("%s: onRung last saw rung %d, want %d", c.name, seen, failing-1)
		}
		// The rung beside the failed one has returned from its Solve by
		// now: no goroutine is still inside the ladder's solve. (An engine's
		// own goroutines may still be exiting.)
		buf := make([]byte, 1<<20)
		if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "ladder.Family.solve") {
			t.Errorf("%s: a rung is still being solved after Build returned:\n%s", c.name, stacks)
		}
	}
	// What remains of those goroutines is their exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines left running after Build, want %d", n, base)
	}
}
