package server

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"retrograde/internal/awari"
	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/zdb"
)

// entry is one discovered shard. Refcounts, state and counters are
// protected by the cache mutex; the loaded table is immutable once
// published, so queries read it without any lock.
type entry struct {
	key  string
	path string

	// Header metadata, known before any load (db.Stat). For a
	// block-compressed (v2) shard, bytes is the compressed in-core
	// footprint — what residency actually costs and what the budget is
	// charged — while rawBytes is the flat packed size.
	entries  uint64
	bits     int
	bytes    uint64
	rawBytes uint64
	version  int

	// Mutable, under Cache.mu.
	refs    int
	loading chan struct{} // non-nil while a load is in flight
	r       zdb.Reader    // non-nil while loaded
	lruEl   *list.Element // non-nil while loaded

	hits, misses, loads, evictions uint64
	// zlookups counts the point lookups of this shard's evicted
	// incarnations; the resident table's own count comes on top.
	zlookups uint64
}

// lookups returns a compressed shard's point lookups across every load.
// Called with the cache mutex held.
func (e *entry) lookups() uint64 {
	n := e.zlookups
	if z, ok := e.r.(*zdb.Table); ok {
		n += z.Stats().Lookups
	}
	return n
}

// ShardInfo is a point-in-time snapshot of one shard, for /stats.
type ShardInfo struct {
	Key     string
	Entries uint64
	Bits    int
	// Bytes is what residency costs: the compressed footprint for a v2
	// shard, the packed words otherwise.
	Bytes uint64
	// RawBytes is the flat packed size whatever the on-disk format.
	RawBytes uint64
	// Version is the shard's on-disk format version (1 or 2).
	Version int
	Loaded  bool
	Pinned  int
	Hits    uint64
	Misses  uint64
	Loads   uint64
	Evicts  uint64
	// Lookups counts the point lookups a compressed (v2) shard decoded,
	// one entry each; zero for flat shards, whose lookups are array reads.
	Lookups uint64
}

// Cache is the shard registry: databases discovered on disk, loaded on
// demand, and evicted LRU under a memory budget. Pinned shards (those
// with in-flight queries) are never evicted; they may push usage over
// the budget, which the next release corrects.
type Cache struct {
	budget uint64 // 0 = unlimited

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used; loaded entries only
	used    uint64

	awariMax int // rungs 0..awariMax are contiguously on disk (-1: none)
}

// NewCache scans dir for *.radb shards (headers only — no values are
// loaded) and returns a cache bounded by budget bytes of resident shard
// data (0 = unlimited). Block-compressed (v2) shards stay compressed in
// core and are charged their compressed footprint, so the same budget
// holds more of the ladder. A retired .rafy family file is refused by
// name rather than skipped, which would quietly serve fewer rungs.
func NewCache(dir string, budget uint64) (*Cache, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	c := &Cache{
		budget:   budget,
		entries:  map[string]*entry{},
		lru:      list.New(),
		awariMax: -1,
	}
	rungs := map[int]bool{}
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, ".radb"):
			info, err := db.Stat(path)
			if err != nil {
				return nil, fmt.Errorf("server: %s: %w", name, err)
			}
			key := strings.TrimSuffix(name, ".radb")
			c.entries[key] = &entry{
				key: key, path: path,
				entries: info.Entries, bits: info.Bits,
				bytes: info.ServingBytes(), rawBytes: info.Bytes, version: info.Version,
			}
			if n, ok := RungOf(key); ok && info.Entries == awari.Size(n) {
				rungs[n] = true
			}
		case strings.HasSuffix(name, ".rafy"):
			return nil, fmt.Errorf("server: %s: %w", name, db.ErrFamilyRetired)
		}
	}
	for rungs[c.awariMax+1] {
		c.awariMax++
	}
	return c, nil
}

// The shard key of awari rung n is "awari-<n>", n in canonical decimal:
// the name rabuild writes, the cache discovers, queries probe and the
// broker consistent-hashes. RungKey and RungOf are its one codec.

var rungKeys = func() (keys [awari.MaxStones + 1]string) {
	for n := range keys {
		keys[n] = "awari-" + strconv.Itoa(n)
	}
	return keys
}()

// RungKey returns the shard key of awari rung n.
func RungKey(n int) string {
	if n >= 0 && n < len(rungKeys) {
		return rungKeys[n]
	}
	return "awari-" + strconv.Itoa(n) // no such rung; the lookup will say so
}

// RungOf reports which awari rung key names. Only RungKey's spelling of
// a rung in [0, awari.MaxStones] is one: "awari-05", "awari-+5",
// "awari-5-sym" and "awari-99999999" are ordinary shard names.
func RungOf(key string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(key, "awari-"))
	if err != nil || n < 0 || n >= len(rungKeys) || rungKeys[n] != key {
		return 0, false
	}
	return n, true
}

// AwariMax returns the largest stone count n such that every rung 0..n
// is on disk. -1 means no awari databases were discovered.
func (c *Cache) AwariMax() int { return c.awariMax }

// Budget returns the configured memory budget (0 = unlimited).
func (c *Cache) Budget() uint64 { return c.budget }

// Used returns the bytes of currently loaded shards.
func (c *Cache) Used() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Keys returns all discovered shard keys, sorted.
func (c *Cache) Keys() []string {
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot returns per-shard statistics, sorted by key.
func (c *Cache) Snapshot() []ShardInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardInfo, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, ShardInfo{
			Key: e.key, Entries: e.entries, Bits: e.bits,
			Bytes: e.bytes, RawBytes: e.rawBytes, Version: e.version,
			Loaded: e.r != nil, Pinned: e.refs,
			Hits: e.hits, Misses: e.misses, Loads: e.loads, Evicts: e.evictions,
			Lookups: e.lookups(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Pin is a loaded, reference-counted shard handle. Release it when the
// query is answered; until then the shard cannot be evicted.
type Pin struct {
	c *Cache
	e *entry
}

// Entries returns the shard's entry count.
func (p *Pin) Entries() uint64 { return p.e.entries }

// Get returns entry idx of the shard, flat or compressed.
func (p *Pin) Get(idx uint64) game.Value { return p.e.r.Get(idx) }

// Release unpins the shard. Each Pin must be released exactly once.
func (p *Pin) Release() {
	c := p.c
	c.mu.Lock()
	p.e.refs--
	if p.e.refs < 0 {
		c.mu.Unlock()
		panic(fmt.Sprintf("server: shard %s released more often than acquired", p.e.key))
	}
	c.evictLocked()
	c.mu.Unlock()
}

// Acquire pins the named shard, loading it from disk if it is not
// resident. Concurrent acquires of a cold shard perform one load.
func (c *Cache) Acquire(key string) (*Pin, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("server: unknown shard %q", key)
	}
	for {
		switch {
		case e.r != nil:
			e.refs++
			e.hits++
			c.lru.MoveToFront(e.lruEl)
			c.mu.Unlock()
			return &Pin{c: c, e: e}, nil
		case e.loading != nil:
			ch := e.loading
			c.mu.Unlock()
			<-ch
			c.mu.Lock()
		default:
			e.misses++
			e.loading = make(chan struct{})
			c.mu.Unlock()

			r, err := load(e)

			c.mu.Lock()
			close(e.loading)
			e.loading = nil
			if err != nil {
				c.mu.Unlock()
				return nil, err
			}
			e.r = r
			e.loads++
			e.refs++
			e.lruEl = c.lru.PushFront(e)
			c.used += e.bytes
			c.evictLocked()
			c.mu.Unlock()
			return &Pin{c: c, e: e}, nil
		}
	}
}

// load reads the shard from disk in either format (no cache lock
// held) and checks an awari rung's size. A v2 shard stays compressed in
// core; Get decodes one entry at a time.
func load(e *entry) (zdb.Reader, error) {
	r, err := zdb.Open(e.path)
	if err != nil {
		return nil, fmt.Errorf("server: loading shard %s: %w", e.key, err)
	}
	if n, ok := RungOf(e.key); ok && r.Size() != awari.Size(n) {
		return nil, fmt.Errorf("server: %s holds %d entries, want %d", e.path, r.Size(), awari.Size(n))
	}
	return r, nil
}

// evictLocked drops least-recently-used unpinned shards until usage fits
// the budget. Called with the cache mutex held.
func (c *Cache) evictLocked() {
	if c.budget == 0 {
		return
	}
	for c.used > c.budget {
		var victim *entry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry); e.refs == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return // everything resident is pinned; over budget until a release
		}
		c.lru.Remove(victim.lruEl)
		victim.lruEl = nil
		victim.zlookups = victim.lookups()
		victim.r = nil
		victim.evictions++
		c.used -= victim.bytes
	}
}

// AcquireAwari pins rungs 0..n, everything needed to answer boards of
// up to n stones, and returns a lookup over the pinned set plus a
// release for all pins.
func (c *Cache) AcquireAwari(n int) (awari.Lookup, func(), error) {
	if n < 0 || n > c.awariMax {
		return nil, nil, fmt.Errorf("server: no awari database for %d stones (have 0..%d)", n, c.awariMax)
	}
	pins := make([]*Pin, 0, n+1)
	release := func() {
		for _, p := range pins {
			p.Release()
		}
	}
	gets := make([]func(uint64) game.Value, n+1)
	for i := 0; i <= n; i++ {
		pin, err := c.Acquire(RungKey(i))
		if err != nil {
			release()
			return nil, nil, err
		}
		pins = append(pins, pin)
		gets[i] = pin.e.r.Get
	}
	lookup := func(stones int, idx uint64) game.Value {
		return gets[stones](idx)
	}
	return lookup, release, nil
}
