package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
	"retrograde/internal/zdb"
)

// writeTable saves a small table of known packed size and returns that
// size in bytes.
func writeTable(t *testing.T, dir, name string, entries int) uint64 {
	t.Helper()
	values := make([]game.Value, entries)
	for i := range values {
		values[i] = game.Value(i % 200)
	}
	tab, err := db.Pack(name, 8, values)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Save(filepath.Join(dir, name+".radb")); err != nil {
		t.Fatal(err)
	}
	return tab.Bytes()
}

func TestCacheLRUBudget(t *testing.T) {
	dir := t.TempDir()
	size := writeTable(t, dir, "a", 1024)
	writeTable(t, dir, "b", 1024)
	writeTable(t, dir, "c", 1024)

	c, err := NewCache(dir, 2*size)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "c"} {
		pin, err := c.Acquire(key)
		if err != nil {
			t.Fatal(err)
		}
		if pin.Get(7) != 7 {
			t.Errorf("shard %s entry 7 = %d, want 7", key, pin.Get(7))
		}
		pin.Release()
		if c.Used() > c.Budget() {
			t.Errorf("after %s: resident %d bytes exceeds budget %d with nothing pinned", key, c.Used(), c.Budget())
		}
	}
	// Acquiring c (the third shard) must have evicted a, the LRU.
	for _, si := range c.Snapshot() {
		switch si.Key {
		case "a":
			if si.Loaded || si.Evicts != 1 {
				t.Errorf("shard a: loaded=%v evictions=%d, want evicted once", si.Loaded, si.Evicts)
			}
		case "b", "c":
			if !si.Loaded || si.Evicts != 0 {
				t.Errorf("shard %s: loaded=%v evictions=%d, want resident", si.Key, si.Loaded, si.Evicts)
			}
		}
	}
	// A re-acquire of a reloads it (miss), evicting b in turn.
	pin, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	pin.Release()
	for _, si := range c.Snapshot() {
		if si.Key == "a" && (si.Loads != 2 || si.Misses != 2 || si.Hits != 0) {
			t.Errorf("shard a after reload: %+v, want 2 loads, 2 misses", si)
		}
		if si.Key == "b" && si.Loaded {
			t.Error("shard b survived the reload of a within a 2-shard budget")
		}
	}
}

func TestCachePinnedNotEvicted(t *testing.T) {
	dir := t.TempDir()
	size := writeTable(t, dir, "a", 1024)
	writeTable(t, dir, "b", 1024)

	c, err := NewCache(dir, size) // room for one shard only
	if err != nil {
		t.Fatal(err)
	}
	pa, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	// Both pinned: over budget is allowed, nothing may be evicted.
	if c.Used() != 2*size {
		t.Errorf("resident %d bytes, want %d (both pinned)", c.Used(), 2*size)
	}
	if pa.e.r == nil || pb.e.r == nil {
		t.Fatal("a pinned shard lost its table")
	}
	pa.Release()
	// Releasing a lets eviction bring usage back under the budget.
	if c.Used() > c.Budget() {
		t.Errorf("resident %d bytes exceeds budget %d after release", c.Used(), c.Budget())
	}
	if pb.e.r == nil {
		t.Error("still-pinned shard b was evicted")
	}
	pb.Release()
}

// TestCacheEvictionSkipsPinned drives eviction while a pinned shard is
// the LRU victim candidate: the pinned shard must be passed over and an
// unpinned, more recently used shard evicted instead.
func TestCacheEvictionSkipsPinned(t *testing.T) {
	dir := t.TempDir()
	size := writeTable(t, dir, "a", 1024)
	writeTable(t, dir, "b", 1024)
	writeTable(t, dir, "c", 1024)

	c, err := NewCache(dir, 2*size)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := c.Acquire("a") // a is LRU once b loads, but stays pinned
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	pb.Release()
	// Loading c overflows the budget; a (LRU) is pinned, so b must go.
	pc, err := c.Acquire("c")
	if err != nil {
		t.Fatal(err)
	}
	for _, si := range c.Snapshot() {
		switch si.Key {
		case "a":
			if !si.Loaded || si.Evicts != 0 {
				t.Errorf("pinned LRU shard a: loaded=%v evictions=%d, want untouched", si.Loaded, si.Evicts)
			}
		case "b":
			if si.Loaded || si.Evicts != 1 {
				t.Errorf("unpinned shard b: loaded=%v evictions=%d, want evicted", si.Loaded, si.Evicts)
			}
		}
	}
	if pa.Get(3) != 3 {
		t.Error("pinned shard a unreadable after eviction pass")
	}
	pa.Release()
	pc.Release()
	if c.Used() > c.Budget() {
		t.Errorf("resident %d bytes exceeds budget %d after releases", c.Used(), c.Budget())
	}
}

// TestCacheShardLargerThanBudget loads a single shard bigger than the
// whole budget: the load must succeed while pinned (pins may overrun
// the budget) and the shard must be evicted on release.
func TestCacheShardLargerThanBudget(t *testing.T) {
	dir := t.TempDir()
	size := writeTable(t, dir, "big", 4096)

	c, err := NewCache(dir, size/2)
	if err != nil {
		t.Fatal(err)
	}
	pin, err := c.Acquire("big")
	if err != nil {
		t.Fatalf("a shard larger than the budget must still load while pinned: %v", err)
	}
	if got := pin.Get(99); got != 99 {
		t.Errorf("big[99] = %d, want 99", got)
	}
	if c.Used() != size {
		t.Errorf("resident %d bytes while pinned, want %d", c.Used(), size)
	}
	pin.Release()
	if c.Used() != 0 {
		t.Errorf("resident %d bytes after release, want 0 (shard exceeds the budget)", c.Used())
	}
	for _, si := range c.Snapshot() {
		if si.Key == "big" && (si.Loaded || si.Evicts != 1) {
			t.Errorf("big after release: loaded=%v evictions=%d, want evicted once", si.Loaded, si.Evicts)
		}
	}
	// The shard stays usable: a re-acquire reloads it.
	pin, err = c.Acquire("big")
	if err != nil {
		t.Fatal(err)
	}
	if got := pin.Get(100); got != 100 {
		t.Errorf("big[100] = %d after reload, want 100", got)
	}
	pin.Release()
}

// TestCacheCompressedShard serves a v2 (block-compressed) shard next to
// its v1 twin: discovery must report the compressed footprint, probes
// must agree entry for entry, and the budget must be charged compressed
// bytes, not inflated ones.
func TestCacheCompressedShard(t *testing.T) {
	dir := t.TempDir()
	values := make([]game.Value, 3000)
	for i := range values {
		values[i] = game.Value(i / 100 % 7) // long runs → compresses well
	}
	tab, err := db.Pack("plain", 8, values)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Save(filepath.Join(dir, "plain.radb")); err != nil {
		t.Fatal(err)
	}
	z, err := zdb.Compress(tab, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Save(filepath.Join(dir, "packed.radb")); err != nil {
		t.Fatal(err)
	}
	if z.Bytes() >= tab.Bytes() {
		t.Fatalf("test table did not compress: %d >= %d bytes", z.Bytes(), tab.Bytes())
	}

	c, err := NewCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 *ShardInfo
	for _, si := range c.Snapshot() {
		si := si
		switch si.Key {
		case "plain":
			v1 = &si
		case "packed":
			v2 = &si
		}
	}
	if v1 == nil || v2 == nil {
		t.Fatalf("discovery missed a shard: v1=%v v2=%v", v1, v2)
	}
	if v1.Version != 1 || v2.Version != 2 {
		t.Errorf("versions = v%d, v%d, want v1, v2", v1.Version, v2.Version)
	}
	if v2.Bytes != z.Bytes() {
		t.Errorf("compressed shard charged %d bytes, want compressed size %d", v2.Bytes, z.Bytes())
	}
	if v2.RawBytes != tab.Bytes() {
		t.Errorf("compressed shard raw = %d bytes, want packed size %d", v2.RawBytes, tab.Bytes())
	}

	pp, err := c.Acquire("plain")
	if err != nil {
		t.Fatal(err)
	}
	pz, err := c.Acquire("packed")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pz.e.r.(*zdb.Table); !ok {
		t.Fatalf("v2 pin holds %T, want a compressed table", pz.e.r)
	}
	for idx := uint64(0); idx < uint64(len(values)); idx++ {
		if got, want := pz.Get(idx), pp.Get(idx); got != want {
			t.Fatalf("packed[%d] = %d, plain[%d] = %d: compressed serving diverges", idx, got, idx, want)
		}
	}
	if c.Used() != tab.Bytes()+z.Bytes() {
		t.Errorf("resident %d bytes, want %d (v1 packed + v2 compressed)", c.Used(), tab.Bytes()+z.Bytes())
	}
	pp.Release()
	pz.Release()

	// The sweep looked up every entry of the compressed shard; the flat
	// twin's lookups are array reads and go uncounted.
	for _, si := range c.Snapshot() {
		switch si.Key {
		case "plain":
			if si.Lookups != 0 {
				t.Errorf("flat shard counts point lookups: %+v", si)
			}
		case "packed":
			if si.Lookups != uint64(len(values)) {
				t.Errorf("packed shard: %d lookups, want %d", si.Lookups, len(values))
			}
		}
	}

	// The counters belong to the shard, not to one resident copy of it:
	// under a budget that evicts on every release they keep adding up.
	tight, err := NewCache(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(1); round <= 2; round++ {
		pin, err := tight.Acquire("packed")
		if err != nil {
			t.Fatal(err)
		}
		pin.Get(0)
		pin.Get(1)
		pin.Release()
		for _, si := range tight.Snapshot() {
			if si.Key == "packed" && (si.Loaded || si.Lookups != 2*round) {
				t.Errorf("round %d: loaded=%v, %d lookups; want evicted with %d",
					round, si.Loaded, si.Lookups, 2*round)
			}
		}
	}

	// Compression stretches one serving budget over more of the search
	// space: one byte short of the flat awari ladder 0..7, every
	// compressed rung stays resident while the flat ladder must evict.
	const top = 7
	lad, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, top, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1Dir, v2Dir := t.TempDir(), t.TempDir()
	var v1Total uint64
	for n := 0; n <= top; n++ {
		name := fmt.Sprintf("awari-%d", n)
		tab, err := db.Pack(name, lad.Slice(n).ValueBits(), lad.Result(n).Values)
		if err != nil {
			t.Fatal(err)
		}
		z, err := zdb.Compress(tab, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Save(filepath.Join(v1Dir, name+".radb")); err != nil {
			t.Fatal(err)
		}
		if err := z.Save(filepath.Join(v2Dir, name+".radb")); err != nil {
			t.Fatal(err)
		}
		v1Total += tab.Bytes()
	}
	for _, ld := range []struct {
		dir        string
		compressed bool
	}{{v1Dir, false}, {v2Dir, true}} {
		c, err := NewCache(ld.dir, v1Total-1)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= top; n++ {
			pin, err := c.Acquire(fmt.Sprintf("awari-%d", n))
			if err != nil {
				t.Fatal(err)
			}
			pin.Release()
		}
		resident, evicts := 0, uint64(0)
		for _, si := range c.Snapshot() {
			if si.Loaded {
				resident++
			}
			evicts += si.Evicts
		}
		if ld.compressed && resident != top+1 {
			t.Errorf("compressed ladder: %d of %d rungs resident under a %d-byte budget, want all", resident, top+1, v1Total-1)
		}
		if !ld.compressed && evicts == 0 {
			t.Errorf("flat ladder: no eviction under a budget one byte short of its %d bytes", v1Total)
		}
	}
}

// TestCacheRejectsUndecodableShard: a compressed shard whose checksums
// all hold but one of whose blocks cannot decode must fail to load, so no
// query reaches it; before the load-time check it loaded, and the first
// lookup in that block panicked a server worker.
func TestCacheRejectsUndecodableShard(t *testing.T) {
	dir := t.TempDir()
	values := make([]game.Value, 4096)
	for i := range values {
		values[i] = game.Value(i * i % 5) // short runs of skewed values → Huffman
	}
	tab, err := db.Pack("bad", 4, values)
	if err != nil {
		t.Fatal(err)
	}
	z, err := zdb.Compress(tab, 256)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The v2 layout: a 24-byte header, the name, blockLen/nBlocks/dataLen,
	// 20-byte directory entries, the data, and the CRC-64 of all of that.
	dirAt := 24 + len("bad") + 16
	dataAt := dirAt + z.Blocks()*db.V2DirEntrySize
	const b = 3
	ent := raw[dirAt+b*db.V2DirEntrySize:]
	if ent[16] != 3 { // codecHuff
		t.Fatalf("block %d has codec %d, want Huffman", b, ent[16])
	}
	off := dataAt + int(binary.LittleEndian.Uint64(ent))
	enc := raw[off : off+int(binary.LittleEndian.Uint32(ent[8:]))]
	for i := 2; i < 2+(int(binary.LittleEndian.Uint16(enc))+2)/2; i++ {
		enc[i] = 0x11 // every symbol a 1-bit code: an over-subscribed length table
	}
	binary.LittleEndian.PutUint32(ent[12:], crc32.ChecksumIEEE(enc))
	binary.LittleEndian.PutUint64(raw[len(raw)-8:], crc64.Checksum(raw[:len(raw)-8], db.CRC64Table))
	if err := os.WriteFile(filepath.Join(dir, "bad.radb"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := NewCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pin, err := c.Acquire("bad"); err == nil {
		pin.Release()
		t.Fatal("Acquire loaded a shard with an undecodable block")
	} else if !strings.Contains(err.Error(), "block 3 ") {
		t.Errorf("Acquire error %q does not name block 3", err)
	}
}

func TestCacheUnknownShard(t *testing.T) {
	c, err := NewCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire("nope"); err == nil {
		t.Error("acquiring an unknown shard succeeded")
	}
	if c.AwariMax() != -1 {
		t.Errorf("AwariMax of an empty dir = %d, want -1", c.AwariMax())
	}
}

func TestCacheConcurrent(t *testing.T) {
	dir := t.TempDir()
	size := writeTable(t, dir, "s0", 512)
	for i := 1; i < 4; i++ {
		writeTable(t, dir, fmt.Sprintf("s%d", i), 512)
	}
	c, err := NewCache(dir, 2*size)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("s%d", rng.Intn(4))
				pin, err := c.Acquire(key)
				if err != nil {
					t.Errorf("acquire %s: %v", key, err)
					return
				}
				idx := uint64(rng.Intn(512))
				if got := pin.Get(idx); got != game.Value(idx%200) {
					t.Errorf("%s[%d] = %d, want %d", key, idx, got, idx%200)
				}
				pin.Release()
			}
		}(int64(w))
	}
	wg.Wait()
	if c.Used() > c.Budget() {
		t.Errorf("resident %d bytes exceeds budget %d after the storm", c.Used(), c.Budget())
	}
	evictions := uint64(0)
	for _, si := range c.Snapshot() {
		evictions += si.Evicts
	}
	if evictions == 0 {
		t.Error("4 shards under a 2-shard budget never evicted")
	}
}

// TestRungKeyCodec: a rung has exactly one shard key, RungKey's. Every
// other spelling — what strconv.Atoi or fmt.Sscanf would wave through —
// names an ordinary shard, so a stray file can neither be routed as a
// rung nor extend the ladder past a rung nobody can acquire.
func TestRungKeyCodec(t *testing.T) {
	for _, tc := range []struct {
		key  string
		rung int
		ok   bool
	}{
		{"awari-0", 0, true},
		{"awari-5", 5, true},
		{"awari-48", awari.MaxStones, true},
		{"awari-49", 0, false},
		{"awari-99999999", 0, false},
		{"awari-05", 0, false},
		{"awari-+5", 0, false},
		{"awari- 5", 0, false},
		{"awari--5", 0, false},
		{"awari-5x", 0, false},
		{"awari-5.radb", 0, false},
		{"awari-5-sym", 0, false},
		{"awari-", 0, false},
		{"awari", 0, false},
		{"kalah-5", 0, false},
		{"5", 0, false},
	} {
		rung, ok := RungOf(tc.key)
		if ok != tc.ok || rung != tc.rung {
			t.Errorf("RungOf(%q) = %d, %v; want %d, %v", tc.key, rung, ok, tc.rung, tc.ok)
		}
		if ok && RungKey(rung) != tc.key {
			t.Errorf("RungKey(%d) = %q, want %q", rung, RungKey(rung), tc.key)
		}
	}

	// Rungs 0 and 1 plus a rung-2-sized table under a near-miss name: the
	// ladder ends at 1, and what it claims to cover it can pin.
	dir := t.TempDir()
	writeTable(t, dir, "awari-0", int(awari.Size(0)))
	writeTable(t, dir, "awari-1", int(awari.Size(1)))
	writeTable(t, dir, "awari-02", int(awari.Size(2)))
	c, err := NewCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.AwariMax(); got != 1 {
		t.Errorf("AwariMax = %d with rungs 0, 1 and a stray awari-02; want 1", got)
	}
	_, release, err := c.AcquireAwari(c.AwariMax())
	if err != nil {
		t.Fatalf("AcquireAwari(AwariMax): %v", err)
	}
	release()
}
