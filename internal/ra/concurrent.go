package ra

import (
	"fmt"
	"runtime"

	"retrograde/internal/game"
)

// Concurrent is the shared-memory parallel engine: the host driver with
// one goroutine per shard. It mirrors the distributed algorithm (same
// waves, same combining) on the host's real cores, so it both validates
// the distributed engine and builds real databases fast.
//
// Shards are run-shaped: the position space is dealt in blocks of
// consecutive positions (see group), because the batch move generators
// and the word-parallel kernel amortise their work over runs of
// consecutive indices. The wire engines deal cyclically instead — their
// cost is messages, and cyclic dealing balances 64 nodes exactly.
type Concurrent struct {
	// Workers is the number of shards; 0 means GOMAXPROCS.
	Workers int
	// Config selects the wave kernel (auto by default).
	Config Config
}

// Name implements Engine.
func (c Concurrent) Name() string {
	return fmt.Sprintf("concurrent(p=%d)", c.workers())
}

func (c Concurrent) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Derived block-cyclic group bounds. Every derived group is a power-of-two
// multiple of minGroup, so shards never share a loop-bitset word and
// assemble their part of the result in parallel.
const (
	maxGroup       = 4096 // the sweep's optimum on large spaces (EXPERIMENTS.md E7)
	minGroup       = 64   // one loop-bitset word
	groupsPerShard = 8    // below this the last, partial round of groups unbalances the shards
)

// group returns the partition group for a space of size positions over p
// shards: the largest derived group that still deals every shard
// groupsPerShard groups.
func group(size uint64, p int) uint64 {
	g := uint64(maxGroup)
	for g > minGroup && size < groupsPerShard*g*uint64(p) {
		g /= 2
	}
	return g
}

// Solve implements Engine.
func (c Concurrent) Solve(g game.Game) (*Result, error) {
	return c.solve(g, hostBatch)
}

// solve is Solve combining batch update runs per channel send.
func (c Concurrent) solve(g game.Game, batch int) (*Result, error) {
	p := c.workers()
	part, err := NewPartition(g.Size(), p, group(g.Size(), p))
	if err != nil {
		return nil, err
	}
	return solveInCore(g, part, c.Config.Kernel, batch)
}
