package awari

import (
	"slices"
	"sync"
	"testing"

	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// testRuns returns the runs, as {base, length}, that the run-stepping
// tests walk in the n-stone space: the whole space when it is small,
// otherwise worker-sized runs at a stride plus runs centred on the two
// places where the colex successor crosses the row-word boundary — pit 5
// passing a stone to pit 6 (pits 0..4 empty), and an empty mover's row
// taking stones back from the opponent's row.
func testRuns(sl *Slice) [][2]uint64 {
	const run = 1024
	size := sl.Size()
	if size <= 16*run {
		return [][2]uint64{{0, size}}
	}
	var runs [][2]uint64
	for base := uint64(0); base+run <= size; base += size / 8 {
		runs = append(runs, [2]uint64{base, run})
	}
	n := int8(sl.Stones())
	for _, b := range []Board{{5: 1, 6: n - 1}, {6: 1, 7: n - 1}} {
		base := min(max(sl.Index(b), run/2)-run/2, size-run)
		runs = append(runs, [2]uint64{base, run})
	}
	return runs
}

// TestNextBoardMatchesUnrank steps runs of the colex successor rule on row
// words and compares every board against Unrank: whole small spaces, and
// worker-sized runs in rungs 13, 24 and 48 that must cross the pit-5/pit-6
// row-word boundary both ways.
func TestNextBoardMatchesUnrank(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 13, 24, MaxStones} {
		sl := MustSlice(Standard, LoopOwnSide, n, zeroLookup)
		crossings := 0
		for _, run := range testRuns(sl) {
			b := sl.Board(run[0])
			w := toRows(&b)
			for idx := run[0]; idx < run[0]+run[1]; idx++ {
				if idx > run[0] {
					if w[0]&(rowMask>>8) == 0 {
						crossings++
					}
					nextBoard(&w)
				}
				if want := sl.Board(idx); w != toRows(&want) {
					t.Fatalf("stones %d: colex successor at rank %d = %#x, Unrank gives %v", n, idx, w, want)
				}
			}
		}
		if n > 0 && crossings == 0 {
			t.Errorf("stones %d: no step crossed the row-word boundary", n)
		}
	}
}

// TestRankBoardMatchesSpaceRank checks the flat-table ranker on row words
// against the index codec over whole small spaces and the same runs in
// rungs 13, 24 and 48, plus a sparse walk of the 48-stone space.
func TestRankBoardMatchesSpaceRank(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 13, 24, MaxStones} {
		sl := MustSlice(Standard, LoopOwnSide, n, zeroLookup)
		var pits [Pits]int
		for _, run := range testRuns(sl) {
			for idx := run[0]; idx < run[0]+run[1]; idx++ {
				b := sl.Board(idx)
				for i, c := range b {
					pits[i] = int(c)
				}
				if want := Space(n).Rank(pits[:]); want != idx {
					t.Fatalf("stones %d: Space.Rank(Board(%d)) = %d", n, idx, want)
				}
				if got := rankBoard(toRows(&b), n); got != idx {
					t.Fatalf("stones %d: rankBoard(Board(%d)) = %d", n, idx, got)
				}
			}
		}
	}
	sl := MustSlice(Standard, LoopOwnSide, MaxStones, zeroLookup)
	for idx := uint64(0); idx < sl.Size(); idx += sl.Size() / 1000 {
		b := sl.Board(idx)
		if got := rankBoard(toRows(&b), MaxStones); got != idx {
			t.Fatalf("stones %d: rankBoard(Board(%d)) = %d", MaxStones, idx, got)
		}
	}
}

// rankEcho is a lookup whose result depends on the child's rank, so a
// misranked capture child cannot cancel out the way it would under a
// constant lookup.
func rankEcho(stones int, idx uint64) game.Value {
	return game.Value(idx % uint64(stones+1))
}

// ruleSets is every rule variant of the awari family.
var ruleSets = []Rules{
	Standard,
	{GrandSlam: GrandSlamForfeit},
	{NoFeedObligation: true},
	{GrandSlam: GrandSlamForfeit, NoFeedObligation: true},
}

// TestBatchGeneratorsWithRealLookup re-runs the batch-vs-scalar
// cross-check (game.Validate calls it) with rankEcho as the lookup. All
// four rule variants and all loop rules are covered.
func TestBatchGeneratorsWithRealLookup(t *testing.T) {
	if testing.Short() {
		t.Skip("batch cross-check skipped in -short mode")
	}
	for _, rules := range ruleSets {
		for _, loop := range []LoopRule{LoopOwnSide, LoopEvenSplit, LoopZero} {
			sl := MustSlice(rules, loop, 6, rankEcho)
			if err := game.Validate(sl); err != nil {
				t.Errorf("rules %+v loop %v: %v", rules, loop, err)
			}
		}
	}
}

// TestPredecessorsRunOrder pins the order, not just the multiset, of the
// batch expander's predecessors: the wire engines expand each position as
// a run of one, and the simulated engines' message counts and virtual time
// depend on the order in which updates reach the combining buffers. Every
// position of rungs 0..9 under every rule variant must list exactly the
// sequence the scalar Predecessors returns.
func TestPredecessorsRunOrder(t *testing.T) {
	var want []uint64
	for _, rules := range ruleSets {
		for n := 0; n <= 9; n++ {
			sl := MustSlice(rules, LoopOwnSide, n, zeroLookup)
			for idx := uint64(0); idx < sl.Size(); idx++ {
				want = sl.Predecessors(idx, want[:0])
				var got []uint64
				sl.PredecessorsRun(idx, 1, func(i int, preds []uint64) {
					if i != 0 {
						t.Fatalf("rules %+v stones %d: run of one visited position %d", rules, n, i)
					}
					got = append(got, preds...)
				})
				if !slices.Equal(got, want) {
					t.Fatalf("rules %+v stones %d position %d: PredecessorsRun lists %v, Predecessors %v", rules, n, idx, got, want)
				}
			}
		}
	}
}

// scalarOnly hides a game's batch generators, so game.RunsOf falls back
// to its per-position adapters over Moves, Predecessors and LoopValue.
type scalarOnly struct{ game.Game }

// FuzzBatchGenerators holds the word-parallel run generators to the
// per-position reference on arbitrary boards of 0..48 stones — including
// single pits of 12..48 stones, whose sows lap the board and skip the
// origin — under every rule variant and loop rule, with rankEcho as the
// lookup. Predecessors must come out in exactly the reference order.
func FuzzBatchGenerators(f *testing.F) {
	for _, seed := range []struct {
		variant uint8
		pits    []byte
	}{
		{0, []byte{0, 0, 0, 0, 0, 6, 1, 1, 1, 1, 1, 1}}, // pit 5 takes the whole opponent row
		{1, []byte{0, 0, 0, 0, 0, 6, 1, 2, 1, 2, 1, 2}}, // the same grand slam, forfeited
		{0, []byte{1, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0}}, // starved opponent
		{0, []byte{0, 0, 0, 48}},                        // four laps from one pit
		{2, []byte{0, 0, 13, 0, 0, 0, 1, 0, 2, 0, 0, 1}},
	} {
		f.Add(seed.variant, seed.pits)
	}
	f.Fuzz(func(t *testing.T, variant uint8, pits []byte) {
		var b Board
		total := 0
		for i, c := range pits[:min(len(pits), Pits)] {
			c := min(int(c)%(MaxStones+1), MaxStones-total)
			b[i] = int8(c)
			total += c
		}
		rules := ruleSets[variant%4]
		loop := LoopRule(variant / 4 % 3)
		sl := MustSlice(rules, loop, total, rankEcho)
		idx := sl.Index(b)
		ref := game.RunsOf(scalarOnly{sl})

		var got, want [1]game.InitStat
		sl.InitRun(idx, 1, got[:])
		ref.InitRun(idx, 1, want[:])
		if got != want {
			t.Fatalf("rules %+v board %v: InitRun = %+v, Moves gives %+v", rules, b, got[0], want[0])
		}
		var gotPreds, wantPreds []uint64
		sl.PredecessorsRun(idx, 1, func(_ int, p []uint64) { gotPreds = append(gotPreds, p...) })
		wantPreds = sl.Predecessors(idx, nil)
		if !slices.Equal(gotPreds, wantPreds) {
			t.Fatalf("rules %+v board %v: PredecessorsRun lists %v, Predecessors %v", rules, b, gotPreds, wantPreds)
		}
		var loopGot [1]game.Value
		sl.LoopValuesRun(idx, 1, loopGot[:])
		if want := sl.LoopValue(idx); loopGot[0] != want {
			t.Fatalf("loop %v board %v: LoopValuesRun = %d, LoopValue %d", loop, b, loopGot[0], want)
		}
	})
}

// benchRung is the rung the run-generator benchmarks walk, resolving its
// captures against the solved rungs below it.
const benchRung = 13

var benchLower = sync.OnceValue(func() []*ra.Result {
	var rungs []*ra.Result
	lookup := func(stones int, idx uint64) game.Value { return rungs[stones].Values[idx] }
	for n := 0; n < benchRung; n++ {
		r, err := ra.Sequential{}.Solve(MustSlice(Standard, LoopOwnSide, n, lookup))
		if err != nil {
			panic(err)
		}
		rungs = append(rungs, r)
	}
	return rungs
})

// benchRuns times one run generator over the whole benchmark rung in
// worker-sized runs of 1,024 positions and reports ns per position.
func benchRuns(b *testing.B, walk func(sl *Slice, base uint64, n int)) {
	lower := benchLower()
	sl := MustSlice(Standard, LoopOwnSide, benchRung, func(stones int, idx uint64) game.Value {
		return lower[stones].Values[idx]
	})
	const run = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for base := uint64(0); base < sl.Size(); base += run {
			walk(sl, base, int(min(run, sl.Size()-base)))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*sl.Size()), "ns/pos")
}

func BenchmarkInitRun(b *testing.B) {
	out := make([]game.InitStat, 1024)
	benchRuns(b, func(sl *Slice, base uint64, n int) { sl.InitRun(base, n, out[:n]) })
}

func BenchmarkPredecessorsRun(b *testing.B) {
	sum := 0
	benchRuns(b, func(sl *Slice, base uint64, n int) {
		sl.PredecessorsRun(base, n, func(_ int, preds []uint64) { sum += len(preds) })
	})
}

func BenchmarkLoopValuesRun(b *testing.B) {
	out := make([]game.Value, 1024)
	benchRuns(b, func(sl *Slice, base uint64, n int) { sl.LoopValuesRun(base, n, out[:n]) })
}
