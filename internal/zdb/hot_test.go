package zdb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"retrograde/internal/game"
)

// checkHotLocked verifies the decoded-block bookkeeping: no block resident
// twice, and never more buffers than the LRU capacity plus one per
// concurrent caller. Called with z.mu held.
func checkHotLocked(z *Table, callers int) error {
	for i := range z.hot {
		for j := i + 1; j < len(z.hot); j++ {
			if z.hot[i].idx == z.hot[j].idx {
				return fmt.Errorf("block %d resident twice", z.hot[i].idx)
			}
		}
	}
	if len(z.hot) > z.hotLimit() {
		return fmt.Errorf("%d blocks resident, capacity %d", len(z.hot), z.hotLimit())
	}
	if n := len(z.hot) + len(z.free); n > z.hotLimit()+callers {
		return fmt.Errorf("%d decoded buffers, want at most %d+%d", n, z.hotLimit(), callers)
	}
	return nil
}

// TestConcurrentGet hammers one table from several goroutines through a
// cache far smaller than the working set, so decodes overlap and race to
// install the same blocks. Run it under -race.
func TestConcurrentGet(t *testing.T) {
	const callers = 8
	vals := awariShaped(32*1024, 3)
	flat := pack(t, "concurrent", awariBits, vals)
	z := roundtrip(t, flat, 256) // 128 blocks
	for _, hotCap := range []int{1, 2} {
		z.SetHotBlocks(hotCap)
		before := z.Stats()
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 4000; i++ {
					// Half the probes in four blocks, so callers collide.
					idx := uint64(rng.Intn(4 * 256))
					if i%2 == 0 {
						idx = uint64(rng.Intn(len(vals)))
					}
					if got, want := z.Get(idx), flat.Get(idx); got != want {
						t.Errorf("hot %d: Get(%d) = %d, want %d", hotCap, idx, got, want)
						return
					}
					z.mu.Lock()
					err := checkHotLocked(z, callers)
					z.mu.Unlock()
					if err != nil {
						t.Errorf("hot %d: %v", hotCap, err)
						return
					}
				}
			}(int64(w))
		}
		wg.Wait()
		st := z.Stats()
		if gets := st.Hits + st.Decodes - before.Hits - before.Decodes; gets != callers*4000 {
			t.Errorf("hot %d: %d hits + decodes for %d Gets", hotCap, gets, callers*4000)
		}
		if st.Duplicates > st.Decodes {
			t.Errorf("hot %d: %+v: more duplicates than decodes", hotCap, st)
		}
		t.Logf("hot %d: %+v", hotCap, st)
	}
}

// TestGetDecodeErrorPanics corrupts one block of a loaded table in core:
// Get must panic naming the block, give its buffer back, and leave the
// table usable (the lock released).
func TestGetDecodeErrorPanics(t *testing.T) {
	vals := awariShaped(8*256, 4)
	flat := pack(t, "corrupt-in-core", awariBits, vals)
	z := roundtrip(t, flat, 256)
	z.SetHotBlocks(2)
	z.dir[3].codec, z.dir[3].encLen = codecHuff, 1 // shorter than a Huffman header
	for round := 0; round < 2; round++ {
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || !strings.Contains(err.Error(), "block 3") {
					t.Fatalf("Get of a corrupt block: recovered %v, want an error naming block 3", r)
				}
			}()
			z.Get(3*256 + 7)
			t.Fatal("Get of a corrupt block returned")
		}()
		z.mu.Lock()
		if len(z.free) != 1 || len(z.hot) != 0 {
			t.Fatalf("after the panic: %d free buffers and %d resident, want 1 and 0", len(z.free), len(z.hot))
		}
		z.mu.Unlock()
	}
	if got := z.Get(5); got != vals[5] {
		t.Errorf("Get(5) after the panic = %d, want %d", got, vals[5])
	}
	if st := z.Stats(); st.Decodes != 3 || st.Hits != 0 {
		t.Errorf("stats %+v, want 3 decodes", st)
	}
}

// TestStatsCountsHitsAndDecodes walks a table through a known sequence.
func TestStatsCountsHitsAndDecodes(t *testing.T) {
	vals := make([]game.Value, 4*64)
	z := roundtrip(t, pack(t, "stats", 4, vals), 64)
	z.SetHotBlocks(2)
	for _, idx := range []uint64{0, 1, 64, 2, 128, 0, 129} { // miss hit miss hit miss(evicts 1) hit hit
		z.Get(idx)
	}
	if got, want := z.Stats(), (Stats{Hits: 4, Decodes: 3}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}
