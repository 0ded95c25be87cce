package awari

import (
	"fmt"
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

// TestNextBoardMatchesUnrank steps runs of the walk at stride 1, the
// colex successor on row words, and compares every board against Unrank:
// whole small spaces, and worker-sized runs in rungs 13, 24 and 48 that
// must cross the pit-5/pit-6 row-word boundary both ways.
func TestNextBoardMatchesUnrank(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 13, 24, MaxStones} {
		sl := MustSlice(Standard, LoopOwnSide, n, zeroLookup)
		crossings := 0
		for _, run := range testRuns(sl) {
			k := sl.walkFrom(run[0], 1)
			for idx := run[0]; idx < run[0]+run[1]; idx++ {
				if idx > run[0] {
					if k.w[0]&(rowMask>>8) == 0 {
						crossings++
					}
					k.next()
				}
				if want := sl.Board(idx); k.w != toRows(&want) {
					t.Fatalf("stones %d: colex successor at rank %d = %#x, Unrank gives %v", n, idx, k.w, want)
				}
			}
		}
		if n > 0 && crossings == 0 {
			t.Errorf("stones %d: no step crossed the row-word boundary", n)
		}
	}
}

// TestStridedWalkMatchesUnrank walks runs at strides 2, 3, 64 and one
// longer than the largest own-row block, C(n+5, 5)+1, so that every step
// of the last carries into the opponent row, and compares every board
// against Unrank. The runs start where testRuns' do and cover up to 1,024
// positions each.
func TestStridedWalkMatchesUnrank(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 13, 24, MaxStones} {
		sl := MustSlice(Standard, LoopOwnSide, n, zeroLookup)
		block := binoms[n+RowSize-1][RowSize-1]
		carries := 0
		for _, stride := range []uint64{2, 3, 64, block + 1} {
			for _, run := range testRuns(sl) {
				k := sl.walkFrom(run[0], stride)
				for idx := run[0]; idx < sl.Size() && idx < run[0]+1024*stride; idx += stride {
					if idx > run[0] {
						w1 := k.w[1]
						k.next()
						if k.w[1] != w1 {
							carries++
						}
					}
					if want := sl.Board(idx); k.w != toRows(&want) {
						t.Fatalf("stones %d stride %d: walk at rank %d = %#x, Unrank gives %v", n, stride, idx, k.w, want)
					}
				}
			}
		}
		if n > 0 && carries == 0 {
			t.Errorf("stones %d: no strided step left its own-row block", n)
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

// TestValidateStridedRuns holds the batch generators to the per-position
// methods on strided runs, under every rule variant and loop rule, at
// strides 1, 2, 3 and 64 and at strides longer than the largest own-row
// block of the slice, where every step leaves its block.
func TestValidateStridedRuns(t *testing.T) {
	for _, rules := range ruleSets {
		for _, loop := range []LoopRule{LoopOwnSide, LoopEvenSplit, LoopZero} {
			for n := 0; n <= 5; n++ {
				sl := MustSlice(rules, loop, n, rankEcho)
				block := binoms[n+RowSize-1][RowSize-1]
				if err := game.ValidateRuns(sl, 1, 2, 3, 64, block+1, 2*block+3); err != nil {
					t.Errorf("rules %+v loop %v: %v", rules, loop, err)
				}
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
// lookup. The board starts a run of up to 64 positions at a stride of 1
// to 65,536 (cut at the end of the space), and every position of the run
// is checked; predecessors must come out in exactly the reference order.
func FuzzBatchGenerators(f *testing.F) {
	for _, seed := range []struct {
		variant uint8
		pits    []byte
		stride  uint16
		n       uint8
	}{
		{0, []byte{0, 0, 0, 0, 0, 6, 1, 1, 1, 1, 1, 1}, 0, 1}, // pit 5 takes the whole opponent row
		{1, []byte{0, 0, 0, 0, 0, 6, 1, 2, 1, 2, 1, 2}, 0, 1}, // the same grand slam, forfeited
		{0, []byte{1, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0}, 0, 1}, // starved opponent
		{0, []byte{0, 0, 0, 48}, 0, 1},                        // four laps from one pit
		{2, []byte{0, 0, 13, 0, 0, 0, 1, 0, 2, 0, 0, 1}, 0, 1},
		{0, []byte{0, 3, 0, 1, 0, 2, 1, 0, 2, 0, 0, 3}, 63, 64}, // the cyclic stride of 64 nodes
		{5, []byte{0, 0, 0, 0, 0, 0, 2, 0, 1, 0, 0, 9}, 2, 40},  // an empty mover's row
		{3, []byte{12}, 6188, 30},                               // past every own-row block of rung 12
	} {
		f.Add(seed.variant, seed.pits, seed.stride, seed.n)
	}
	f.Fuzz(func(t *testing.T, variant uint8, pits []byte, strideIn uint16, nIn uint8) {
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
		base := sl.Index(b)
		stride := uint64(strideIn) + 1
		n := int(min(uint64(nIn%64)+1, (sl.Size()-1-base)/stride+1))
		ref := game.RunsOf(scalarOnly{sl})

		got := make([]game.InitStat, n)
		want := make([]game.InitStat, n)
		sl.InitStrided(base, stride, n, got)
		ref.InitStrided(base, stride, n, want)
		gotPreds := make([][]uint64, n)
		sl.PredecessorsStrided(base, stride, n, func(i int, p []uint64) { gotPreds[i] = append(gotPreds[i], p...) })
		loopGot := make([]game.Value, n)
		sl.LoopValuesStrided(base, stride, n, loopGot)
		for i := range n {
			idx := base + uint64(i)*stride
			if got[i] != want[i] {
				t.Fatalf("rules %+v position %d (stride %d): InitStrided = %+v, Moves gives %+v", rules, idx, stride, got[i], want[i])
			}
			if wantPreds := sl.Predecessors(idx, nil); !slices.Equal(gotPreds[i], wantPreds) {
				t.Fatalf("rules %+v position %d (stride %d): PredecessorsStrided lists %v, Predecessors %v", rules, idx, stride, gotPreds[i], wantPreds)
			}
			if want := sl.LoopValue(idx); loopGot[i] != want {
				t.Fatalf("loop %v position %d (stride %d): LoopValuesStrided = %d, LoopValue %d", loop, idx, stride, loopGot[i], want)
			}
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
// worker-sized runs of 1,024 positions at the given stride, as the shards
// of a stride-node cyclic partition walk it, and reports ns per position.
func benchRuns(b *testing.B, stride uint64, walk func(sl *Slice, base, stride uint64, n int)) {
	lower := benchLower()
	sl := MustSlice(Standard, LoopOwnSide, benchRung, func(stones int, idx uint64) game.Value {
		return lower[stones].Values[idx]
	})
	const run = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for r := range stride {
			for base := r; base < sl.Size(); base += run * stride {
				walk(sl, base, stride, int(min(run, (sl.Size()-1-base)/stride+1)))
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*sl.Size()), "ns/pos")
}

// benchStrides are the run strides the generator benchmarks time: a
// block's runs and a 64-node cyclic shard's.
var benchStrides = []uint64{1, 64}

func BenchmarkInitRun(b *testing.B) {
	out := make([]game.InitStat, 1024)
	for _, k := range benchStrides {
		b.Run(fmt.Sprintf("stride=%d", k), func(b *testing.B) {
			benchRuns(b, k, func(sl *Slice, base, k uint64, n int) { sl.InitStrided(base, k, n, out[:n]) })
		})
	}
}

func BenchmarkPredecessorsRun(b *testing.B) {
	sum := 0
	for _, k := range benchStrides {
		b.Run(fmt.Sprintf("stride=%d", k), func(b *testing.B) {
			benchRuns(b, k, func(sl *Slice, base, k uint64, n int) {
				sl.PredecessorsStrided(base, k, n, func(_ int, preds []uint64) { sum += len(preds) })
			})
		})
	}
}

func BenchmarkLoopValuesRun(b *testing.B) {
	out := make([]game.Value, 1024)
	for _, k := range benchStrides {
		b.Run(fmt.Sprintf("stride=%d", k), func(b *testing.B) {
			benchRuns(b, k, func(sl *Slice, base, k uint64, n int) { sl.LoopValuesStrided(base, k, n, out[:n]) })
		})
	}
}
