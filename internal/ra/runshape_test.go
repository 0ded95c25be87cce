package ra_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
)

// runCounter wraps an awari slice and counts the calls into its batch
// generators and the positions they cover — work counters, so the run
// shape of an engine can be asserted without a clock. The embedded slice
// supplies the rest of the game (and the lane contract).
type runCounter struct {
	*awari.Slice
	initCalls, initPos atomic.Uint64
	predCalls, predPos atomic.Uint64
	loopCalls, loopPos atomic.Uint64
	strides            sync.Map // every stride a generator was called with
}

func (c *runCounter) InitStrided(base, stride uint64, n int, out []game.InitStat) {
	c.initCalls.Add(1)
	c.initPos.Add(uint64(n))
	c.strides.Store(stride, true)
	c.Slice.InitStrided(base, stride, n, out)
}

func (c *runCounter) PredecessorsStrided(base, stride uint64, n int, visit func(i int, preds []uint64)) {
	c.predCalls.Add(1)
	c.predPos.Add(uint64(n))
	c.strides.Store(stride, true)
	c.Slice.PredecessorsStrided(base, stride, n, visit)
}

func (c *runCounter) LoopValuesStrided(base, stride uint64, n int, out []game.Value) {
	c.loopCalls.Add(1)
	c.loopPos.Add(uint64(n))
	c.strides.Store(stride, true)
	c.Slice.LoopValuesStrided(base, stride, n, out)
}

// onlyStride reports whether every generator call used stride k.
func (c *runCounter) onlyStride(k uint64) bool {
	only := true
	c.strides.Range(func(s, _ any) bool {
		only = s.(uint64) == k
		return only
	})
	return only
}

// TestConcurrentRunShape pins what makes the shared-memory engine fast on
// real cores: its shards hand the batch generators long runs of
// consecutive positions.
func TestConcurrentRunShape(t *testing.T) {
	const rung = 8 // 75,582 positions
	lad, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, rung, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := lad.Result(rung)
	size := lad.Slice(rung).Size()
	if size < 64<<10 {
		t.Fatalf("rung %d has %d positions, the test needs at least 64 Ki", rung, size)
	}
	solve := func(e ra.Engine) *runCounter {
		c := &runCounter{Slice: lad.Slice(rung)}
		got, err := e.Solve(c)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if got.Kernel != "swar" {
			t.Fatalf("%s: kernel %q; only the SWAR kernel consults the batch generators", e.Name(), got.Kernel)
		}
		compareResults(t, e.Name(), want, got)
		if c.initPos.Load() != size {
			t.Errorf("%s: InitStrided covered %d positions, want all %d", e.Name(), c.initPos.Load(), size)
		}
		return c
	}
	for _, p := range []int{2, 3, 4} {
		e := ra.Concurrent{Workers: p}
		c := solve(e)
		if mean := c.initPos.Load() / c.initCalls.Load(); mean < 512 {
			t.Errorf("%s: mean InitStrided length %d, want >= 512", e.Name(), mean)
		}
		if !c.onlyStride(1) {
			t.Errorf("%s: a block partition walked a run at stride != 1", e.Name())
		}
		// Loop runs skip all-final stretches and predecessor runs follow
		// the wave queue, so both are shorter; they must still be runs.
		// A wave queue rarely holds neighbours, yet blocks coalesce a
		// quarter of it (a cyclic map would make every run one position).
		if mean := c.loopPos.Load() / c.loopCalls.Load(); mean < 512 {
			t.Errorf("%s: mean LoopValuesStrided length %d, want >= 512", e.Name(), mean)
		}
		if pos, calls := c.predPos.Load(), c.predCalls.Load(); 4*pos < 5*calls {
			t.Errorf("%s: %d PredecessorsStrided calls for %d positions, want runs of 1.25 on average", e.Name(), calls, pos)
		}
	}
	// A cyclic partition deals neighbours to different nodes, yet each
	// shard is one progression of stride P: its init and loop runs are as
	// long as a block's.
	for _, p := range []int{3, 4} {
		e := ra.Distributed{Workers: p}
		c := solve(e)
		if mean := c.initPos.Load() / c.initCalls.Load(); mean < 512 {
			t.Errorf("%s: mean InitStrided length %d, want >= 512", e.Name(), mean)
		}
		if mean := c.loopPos.Load() / c.loopCalls.Load(); mean < 512 {
			t.Errorf("%s: mean LoopValuesStrided length %d, want >= 512", e.Name(), mean)
		}
		if !c.onlyStride(uint64(p)) {
			t.Errorf("%s: a cyclic partition walked a run at stride != %d", e.Name(), p)
		}
	}
}
