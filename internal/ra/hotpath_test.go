package ra

import (
	"sync"
	"testing"

	"retrograde/internal/combine"
	"retrograde/internal/ttt"
)

// TestConcurrentPooledBatchReuse solves a multi-wave game repeatedly with
// small batches (maximising pool churn) and checks parity every time —
// if a recycled batch array were handed out before its receiver finished
// reading it, values would corrupt nondeterministically.
func TestConcurrentPooledBatchReuse(t *testing.T) {
	g := ttt.New()
	want := SolveSequential(g)
	for round := 0; round < 8; round++ {
		got, err := Concurrent{Workers: 4}.solve(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "pooled round", want, got)
	}
}

// BenchmarkPooledWaveTransport measures the steady-state allocation cost
// of moving one update run through the wave transport: pooled combining
// buffer -> channel -> receiver -> recycled back to the pool. After the
// pool warms up this must be ~0 allocs/op.
func BenchmarkPooledWaveTransport(b *testing.B) {
	const p = 4
	const batch = 256
	inbox := make([]chan waveMsg, p)
	for i := range inbox {
		inbox[i] = make(chan waveMsg, 4*p)
	}
	free := make(chan []UpdateRun, 5*p*p+p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for m := range inbox[me] {
				select {
				case free <- m.runs[:0]:
				default:
				}
			}
		}(i)
	}
	buf := combine.MustNew(p, batch, func(dst int, bt []UpdateRun) {
		inbox[dst] <- waveMsg{runs: bt}
	})
	buf.SetAlloc(func() []UpdateRun {
		select {
		case bt := <-free:
			return bt
		default:
			return make([]UpdateRun, 0, batch)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Add(i%p, UpdateRun{Base: uint64(i), Count: 1})
	}
	b.StopTimer()
	buf.FlushAll()
	for i := range inbox {
		close(inbox[i])
	}
	wg.Wait()
}

// BenchmarkWorkerApply measures the packed-state propagation step in
// isolation: one update applied to one owned position, a single-word
// read-modify-write.
func BenchmarkWorkerApply(b *testing.B) {
	g := hugeBranch{n: 1}
	w := scalarWorker(g, Cyclic(g.Size(), 1), 0)
	w.Init()
	local := w.part.Local(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Reset the word each iteration so the position never finalizes
		// or underflows; this prices the Apply path, not the queue.
		w.state[local] = packState(0, MaxSuccessors, false)
		w.Apply(Update{Target: 1, Value: 1})
	}
}
