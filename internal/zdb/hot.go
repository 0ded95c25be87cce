package zdb

import (
	"fmt"

	"retrograde/internal/game"
)

// hotBlock is one decoded block resident in the table's LRU.
type hotBlock struct {
	idx   int    // block index
	stamp uint64 // last-use clock tick
	vals  []game.Value
}

// Stats counts what Get did since the table was built or loaded. Plain
// counters, no clock: a served table's hit share is Hits/(Hits+Decodes).
type Stats struct {
	// Hits are Gets answered from an already decoded block.
	Hits uint64
	// Decodes are Gets that decoded a block (misses).
	Decodes uint64
	// Duplicates are decodes discarded because a concurrent Get installed
	// the same block first; a subset of Decodes.
	Duplicates uint64
}

// Stats returns the table's Get counters.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// SetHotBlocks sets the decoded-block LRU capacity (default 8 blocks)
// and drops anything currently decoded. A server tuning for a scan-heavy
// workload can raise it; the compressed payload itself never grows.
func (t *Table) SetHotBlocks(n int) {
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.hot = nil
	t.free = nil
	t.hotCap = n
	t.mu.Unlock()
}

// Get returns entry idx, decoding at most one block. It is safe for
// concurrent callers. The table lock covers only the LRU lookup and the
// hand-over of decode buffers; the decode itself runs unlocked, so
// callers missing on different blocks decode in parallel (two missing on
// the same block both decode it, and the later one's copy is dropped).
// A hit allocates nothing; a miss decodes into a buffer from the free
// list, which installing the block refills with the evicted one, so the
// steady state is allocation-free and a table never holds more decoded
// blocks than its LRU capacity plus the number of concurrent callers.
func (t *Table) Get(idx uint64) game.Value {
	if idx >= t.size {
		panic(fmt.Sprintf("zdb: index %d out of range [0, %d)", idx, t.size))
	}
	b := int(idx / uint64(t.blockLen))
	within := idx % uint64(t.blockLen)

	t.mu.Lock()
	if vals := t.lookupLocked(b); vals != nil {
		t.stats.Hits++
		v := vals[within]
		t.mu.Unlock()
		return v
	}
	t.stats.Decodes++
	vals := t.takeBufferLocked()
	t.mu.Unlock()

	err := decodeBlock(t.encoded(b), t.blockEntries(b), t.bits, t.dir[b].codec, t.dir[b].param, vals)

	t.mu.Lock()
	if err != nil {
		t.free = append(t.free, vals)
		t.mu.Unlock()
		// Load verified the file checksum, so a decode failure here is
		// corruption of the in-core payload or a format bug.
		panic(fmt.Errorf("zdb: block %d: %w", b, err))
	}
	v := vals[within]
	if t.lookupLocked(b) != nil {
		t.stats.Duplicates++
		t.free = append(t.free, vals)
	} else {
		if len(t.hot) >= t.hotLimit() {
			t.free = append(t.free, t.evictLocked())
		}
		t.hot = append(t.hot, hotBlock{idx: b, stamp: t.clock, vals: vals})
	}
	t.mu.Unlock()
	return v
}

// hotLimit returns the LRU capacity.
func (t *Table) hotLimit() int {
	if t.hotCap == 0 {
		return defaultHotBlocks
	}
	return t.hotCap
}

// lookupLocked returns block b's decoded values and marks it most
// recently used, or nil if b is not resident. Called with t.mu held.
func (t *Table) lookupLocked(b int) []game.Value {
	t.clock++
	for i := range t.hot {
		if t.hot[i].idx == b {
			t.hot[i].stamp = t.clock
			return t.hot[i].vals
		}
	}
	return nil
}

// takeBufferLocked returns a block-sized buffer for a decode: from the
// free list, else a new one. Resident blocks are left alone until the
// decoded block is installed. Called with t.mu held.
func (t *Table) takeBufferLocked() []game.Value {
	if n := len(t.free); n > 0 {
		vals := t.free[n-1]
		t.free = t.free[:n-1]
		return vals
	}
	return make([]game.Value, t.blockLen)
}

// evictLocked removes the least recently used block from the LRU and
// returns its buffer. Called with t.mu held and t.hot non-empty.
func (t *Table) evictLocked() []game.Value {
	lru := 0
	for i := range t.hot {
		if t.hot[i].stamp < t.hot[lru].stamp {
			lru = i
		}
	}
	vals := t.hot[lru].vals
	last := len(t.hot) - 1
	t.hot[lru] = t.hot[last]
	t.hot[last] = hotBlock{}
	t.hot = t.hot[:last]
	return vals
}
