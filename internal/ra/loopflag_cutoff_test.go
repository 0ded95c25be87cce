package ra

import (
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/game"
)

// counterAt reads a local position's counter field under either kernel.
func (w *Worker) counterAt(local uint64) int32 {
	if w.lane != nil {
		return int32(w.lane[local] & laneCntField >> laneCntShift)
	}
	return stateCounter(w.state[local])
}

// TestLoopFlagInStateCutoffs pins, one finalization path at a time, that
// every finalization other than the loop rule stores counter 0 — the
// half of the loop-flag contract (final ∧ counter ≠ 0 ⇔ loop-resolved)
// that early cutoffs could break, since they finalize positions whose
// counter is still up. Awari-4 finalizes at value 4 (all stones won).
func TestLoopFlagInStateCutoffs(t *testing.T) {
	g := awariRung(t, 4, awari.Standard, awari.LoopOwnSide)
	part := Cyclic(g.Size(), 1)
	const cutoff = 4
	for _, k := range []Kernel{KernelScalar, KernelSWAR} {
		w, err := NewWorkerKernel(g, part, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		expect := func(path string, local uint64, final bool, counter int32) {
			t.Helper()
			if w.finalAt(local) != final || w.counterAt(local) != counter {
				t.Errorf("%v %s: local %d final=%v counter=%d, want final=%v counter=%d",
					k, path, local, w.finalAt(local), w.counterAt(local), final, counter)
			}
		}

		// initState: a resolved move that cuts off finalizes a position
		// with internal successors outstanding; an ordinary one does not.
		w.initState(0, game.InitStat{Moves: 5, Internal: 3, Best: cutoff})
		expect("initState cutoff", 0, true, 0)
		w.initState(1, game.InitStat{Moves: 5, Internal: 3, Best: 1})
		expect("initState open", 1, false, 3)
		w.initState(2, game.InitStat{Moves: 2, Internal: 0, Best: 1})
		expect("initState no internal successor", 2, true, 0)

		// applyState / applyLane: cutoff with counter 3, and exhaustion.
		w.initState(3, game.InitStat{Moves: 4, Internal: 3, Best: game.NoValue})
		w.applyAt(3, game.Value(g.Stones())-cutoff) // mover value: cutoff
		expect("apply cutoff at counter 3", 3, true, 0)
		w.initState(4, game.InitStat{Moves: 1, Internal: 1, Best: game.NoValue})
		w.applyAt(4, game.Value(g.Stones())-1)
		expect("apply exhaustion", 4, true, 0)

		// The loop rule keeps the counter: that is the flag.
		w.initState(5, game.InitStat{Moves: 3, Internal: 2, Best: 0})
		if !w.resolveLoop(5, 1) {
			t.Fatalf("%v: resolveLoop skipped an open position", k)
		}
		expect("resolveLoop", 5, true, 2)
		w.applyAt(5, game.Value(g.Stones())-cutoff) // stale: must not clear the flag
		expect("stale update on a loop-resolved position", 5, true, 2)
	}

	// applyWord: eight lanes, one update per lane per call, finalizing by
	// exhaustion on the first call and by cutoff on the second.
	w, err := NewWorkerKernel(g, part, 0, KernelSWAR)
	if err != nil {
		t.Fatal(err)
	}
	lanes := []byte{
		1 | 3<<laneCntShift,                // cutoff with counter 3 (second call)
		0 | 1<<laneCntShift,                // exhaustion (first call)
		2 | 7<<laneCntShift,                // cutoff with counter 7
		1 | 2<<laneCntShift | laneFinalBit, // loop-resolved: stale, keeps its flag
		3 | laneFinalBit,                   // final by propagation: stale
		0 | 2<<laneCntShift,                // exhaustion and cutoff at once (second call)
		2 | 4<<laneCntShift,                // cutoff with counter 4
		3 | 1<<laneCntShift,                // exhaustion (first call)
	}
	copy(w.lane, lanes)
	w.applyWord(0, 2)
	w.applyWord(0, cutoff)
	for i, in := range lanes {
		got := w.lane[i]
		want := got&laneValueMask | laneFinalBit
		if in&laneFinalBit != 0 {
			want = in // stale lanes are untouched, loop flag included
		}
		if got != want {
			t.Errorf("applyWord lane %d: %#02x -> %#02x, want %#02x", i, in, got, want)
		}
	}
}
