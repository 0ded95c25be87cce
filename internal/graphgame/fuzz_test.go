package graphgame_test

import (
	"errors"
	"fmt"
	"testing"

	"retrograde/internal/game"
	"retrograde/internal/graphgame"
	"retrograde/internal/oocore"
	"retrograde/internal/ra"
)

// FuzzHostEnginesOnGraph is the host engines' differential oracle: every
// configuration of the host driver must solve a random graph to the
// reference solver's values, loop set and wave count — Sequential under
// the scalar kernel and, on lane-eligible graphs, the SWAR kernel,
// Concurrent on one to four goroutines, and the out-of-core engine at
// 64-position blocks under a two-block cap, once straight through and
// once paused and resumed after every wave.
func FuzzHostEnginesOnGraph(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(7), uint8(7), true)
	f.Add(uint64(2), uint16(700), uint8(3), uint8(7), true)
	f.Add(uint64(3), uint16(500), uint8(15), uint8(4), false)
	f.Add(uint64(4), uint16(400), uint8(0), uint8(2), true)
	f.Add(uint64(5), uint16(600), uint8(200), uint8(11), true)
	f.Add(uint64(6), uint16(900), uint8(40), uint8(3), false)
	f.Add(uint64(7), uint16(1), uint8(7), uint8(7), true)
	f.Add(uint64(8), uint16(129), uint8(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, neg, maxInternal uint8, cutoff bool) {
		s := graphgame.Shape{Size: 1 + int(size)%1200, Neg: game.Value(neg), MaxInternal: int(maxInternal) % 12, Cutoff: cutoff}
		g := graphgame.New(seed, s)
		want := graphgame.Solve(g)
		engines := []ra.Engine{ra.Sequential{Config: ra.Config{Kernel: ra.KernelScalar}}}
		if s.Lanes() {
			engines = append(engines, ra.Sequential{Config: ra.Config{Kernel: ra.KernelSWAR}})
		}
		for p := 1; p <= 4; p++ {
			engines = append(engines, ra.Concurrent{Workers: p})
		}
		inCore, err := ra.InCoreStateBytes(g, ra.KernelAuto)
		if err != nil {
			t.Fatal(err)
		}
		capped := oocore.Engine{MemLimit: max(2*64*inCore/g.Size(), 1), BlockLen: 64, Dir: t.TempDir()}
		engines = append(engines, capped)
		for _, e := range engines {
			got, err := e.Solve(g)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name(), e.Name(), err)
			}
			check(t, g.Name()+" "+e.Name(), want, got)
		}
		paused := capped
		paused.Dir, paused.StopAfterWaves = t.TempDir(), 1
		for pauses := 0; ; pauses++ {
			got, err := paused.Solve(g)
			if errors.Is(err, ra.ErrPaused) {
				continue
			}
			if err != nil {
				t.Fatalf("%s paused %s: %v", g.Name(), paused.Name(), err)
			}
			if pauses != want.Waves {
				t.Errorf("%s: paused %d times, want once per wave: %d", g.Name(), pauses, want.Waves)
			}
			check(t, fmt.Sprintf("%s resumed %s", g.Name(), paused.Name()), want, got)
			break
		}
	})
}

// FuzzWireEnginesOnGraph is the wire engines' differential oracle: the
// simulated-cluster engine on one to five nodes must solve a random graph
// to the reference solver's values, loop set and wave count under both
// done-report protocols (the tree one with a three-update combining
// buffer), and its async mode to the same values and loop set — an async
// result's Waves are Safra probe rounds, so they are not compared.
func FuzzWireEnginesOnGraph(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(7), uint8(7), true)
	f.Add(uint64(2), uint16(700), uint8(3), uint8(7), true)
	f.Add(uint64(3), uint16(500), uint8(15), uint8(4), false)
	f.Add(uint64(4), uint16(400), uint8(0), uint8(2), true)
	f.Add(uint64(5), uint16(600), uint8(200), uint8(11), true)
	f.Add(uint64(6), uint16(900), uint8(40), uint8(3), false)
	f.Add(uint64(7), uint16(1), uint8(7), uint8(7), true)
	f.Add(uint64(8), uint16(129), uint8(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, neg, maxInternal uint8, cutoff bool) {
		s := graphgame.Shape{Size: 1 + int(size)%1200, Neg: game.Value(neg), MaxInternal: int(maxInternal) % 12, Cutoff: cutoff}
		g := graphgame.New(seed, s)
		want := graphgame.Solve(g)
		for p := 1; p <= 5; p++ {
			for _, e := range []ra.Engine{
				ra.Distributed{Workers: p},
				ra.Distributed{Workers: p, Protocol: ra.TreeProtocol, Combine: 3},
			} {
				got, err := e.Solve(g)
				if err != nil {
					t.Fatalf("%s %s: %v", g.Name(), e.Name(), err)
				}
				check(t, g.Name()+" "+e.Name(), want, got)
			}
			async := ra.Distributed{Workers: p, Async: true, Combine: 2}
			got, err := async.Solve(g)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name(), async.Name(), err)
			}
			checkValues(t, g.Name()+" "+async.Name(), want, got)
		}
	})
}

// check compares an engine's result with the reference solution.
func check(t *testing.T, label string, want graphgame.Solution, got *ra.Result) {
	t.Helper()
	checkValues(t, label, want, got)
	if got.Waves != want.Waves {
		t.Fatalf("%s: %d waves, reference %d", label, got.Waves, want.Waves)
	}
}

// checkValues compares an engine's values and loop set with the
// reference solution.
func checkValues(t *testing.T, label string, want graphgame.Solution, got *ra.Result) {
	t.Helper()
	loops := uint64(0)
	for p, v := range want.Values {
		if got.Values[p] != v || got.IsLoop(uint64(p)) != want.Loop[p] {
			t.Fatalf("%s: position %d has value %d (loop %v), reference %d (loop %v, round %d)",
				label, p, got.Values[p], got.IsLoop(uint64(p)), v, want.Loop[p], want.Round[p])
		}
		if want.Loop[p] {
			loops++
		}
	}
	if got.LoopPositions != loops {
		t.Fatalf("%s: %d loop positions, reference %d", label, got.LoopPositions, loops)
	}
}
