package zdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
)

// pack builds a v1 table from values at the given width.
func pack(t *testing.T, name string, bits int, vals []game.Value) *db.Table {
	t.Helper()
	tab, err := db.Pack(name, bits, vals)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// roundtrip compresses, serialises, and re-reads a table.
func roundtrip(t *testing.T, tab *db.Table, blockLen int) *Table {
	t.Helper()
	z, err := Compress(tab, blockLen)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundtripMixedValues(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]game.Value, 10000)
	for i := range vals {
		switch {
		case i < 4000: // long constant run
			vals[i] = 3
		case i < 7000: // narrow range
			vals[i] = game.Value(5 + rng.Intn(4))
		default: // full width
			vals[i] = game.Value(rng.Intn(1 << 9))
		}
	}
	tab := pack(t, "mixed", 9, vals)
	for _, blockLen := range []int{1, 7, 512, 4096, 100000} {
		z := roundtrip(t, tab, blockLen)
		if z.Name() != "mixed" || z.Size() != tab.Size() || z.Bits() != 9 {
			t.Fatalf("blockLen %d: header mismatch: %q %d %d", blockLen, z.Name(), z.Size(), z.Bits())
		}
		got, err := z.Unpack()
		if err != nil {
			t.Fatalf("blockLen %d: %v", blockLen, err)
		}
		for i, v := range vals {
			if got[i] != v {
				t.Fatalf("blockLen %d: streaming entry %d = %d, want %d", blockLen, i, got[i], v)
			}
		}
		for i := 0; i < len(vals); i += 37 {
			if g := z.Get(uint64(i)); g != vals[i] {
				t.Fatalf("blockLen %d: Get(%d) = %d, want %d", blockLen, i, g, vals[i])
			}
		}
		if err := z.Verify(); err != nil {
			t.Fatalf("blockLen %d: verify: %v", blockLen, err)
		}
	}
}

func TestCodecSelection(t *testing.T) {
	constant := make([]game.Value, 4096)
	z, err := Compress(pack(t, "c", 8, constant), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if raw, narrow, rle, huff := z.CodecCounts(); raw+huff != 0 || narrow+rle != 1 {
		t.Errorf("constant block picked %d raw, %d narrow, %d rle, %d huff", raw, narrow, rle, huff)
	}
	if z.Bytes() > 64 {
		t.Errorf("constant 4096-entry block compressed to %d bytes", z.Bytes())
	}

	rng := rand.New(rand.NewSource(1))
	noisy := make([]game.Value, 4096)
	for i := range noisy {
		noisy[i] = game.Value(rng.Intn(256))
	}
	z, err = Compress(pack(t, "n", 8, noisy), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if raw, narrow, rle, huff := z.CodecCounts(); raw+huff != 1 || narrow+rle != 0 {
		t.Errorf("uniform-random block picked %d raw, %d narrow, %d rle, %d huff", raw, narrow, rle, huff)
	}

	// Values in [100, 103] need 2 bits against an 8-bit entry width.
	shifted := make([]game.Value, 4096)
	for i := range shifted {
		shifted[i] = game.Value(100 + rng.Intn(4))
	}
	z, err = Compress(pack(t, "s", 8, shifted), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if raw, narrow, rle, huff := z.CodecCounts(); narrow+huff != 1 || raw+rle != 0 {
		t.Errorf("narrow-range block picked %d raw, %d narrow, %d rle, %d huff", raw, narrow, rle, huff)
	}
	if z.Bytes() >= z.RawBytes() {
		t.Errorf("narrow block did not shrink: %d >= %d", z.Bytes(), z.RawBytes())
	}
}

// TestAwariParity is the bit-exact acceptance check: for every rung of
// the awari ladder, the v2 table equals the v1 table entry for entry,
// via both streaming decode and random access.
func TestAwariParity(t *testing.T) {
	maxStones := 8
	if testing.Short() {
		maxStones = 6
	}
	cfg := ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}
	l, err := ladder.Build(cfg, maxStones, ra.Concurrent{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= maxStones; n++ {
		vals := l.Result(n).Values
		bits := l.Slice(n).ValueBits()
		v1 := pack(t, l.Slice(n).Name(), bits, vals)
		v2 := roundtrip(t, v1, 1024)
		if v2.Size() != v1.Size() {
			t.Fatalf("rung %d: %d entries, want %d", n, v2.Size(), v1.Size())
		}
		stream, err := v2.Unpack()
		if err != nil {
			t.Fatalf("rung %d: %v", n, err)
		}
		for i := uint64(0); i < v1.Size(); i++ {
			want := v1.Get(i)
			if stream[i] != want {
				t.Fatalf("rung %d: streaming entry %d = %d, want %d", n, i, stream[i], want)
			}
			if got := v2.Get(i); got != want {
				t.Fatalf("rung %d: random-access entry %d = %d, want %d", n, i, got, want)
			}
		}
		if v2.Bytes() >= v1.Bytes() && n >= 4 {
			t.Errorf("rung %d: compressed %d bytes >= packed %d", n, v2.Bytes(), v1.Bytes())
		}
	}
}

// TestCompressGolden pins the bytes Compress writes for awari rungs 6..8,
// so a codec change that alters the format (rather than only the speed
// of reading it) fails here. The hashes are FNV-1a of WriteTo's output,
// taken with the bit-serial decoders' commit checked out: files it wrote
// are the files this commit writes, and TestAwariParity reads them back.
func TestCompressGolden(t *testing.T) {
	golden := map[string]uint64{
		"awari-6/4096": 0x5b164d304009286a,
		"awari-6/256":  0x2d5d76233c2620f3,
		"awari-7/4096": 0x3fc217f53cbbf1cd,
		"awari-7/256":  0xa25f8afa71857fae,
		"awari-8/4096": 0x935d6d3572e1f9fc,
		"awari-8/256":  0xcdd20f878da6d5bf,
	}
	cfg := ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}
	l, err := ladder.Build(cfg, 8, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 6; n <= 8; n++ {
		v1 := pack(t, l.Slice(n).Name(), l.Slice(n).ValueBits(), l.Result(n).Values)
		for _, blockLen := range []int{DefaultBlockLen, 256} {
			z, err := Compress(v1, blockLen)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			if _, err := z.WriteTo(h); err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("awari-%d/%d", n, blockLen)
			if got := h.Sum64(); got != golden[key] {
				t.Errorf("%s: Compress output hashes to %#016x, golden %#016x", key, got, golden[key])
			}
		}
	}
}

func TestRandomAccessStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]game.Value, 64*1024)
	for i := range vals {
		vals[i] = game.Value(rng.Intn(200))
	}
	z := roundtrip(t, pack(t, "storm", 8, vals), 512)
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			ok := true
			for i := 0; i < 20000; i++ {
				idx := uint64(rng.Intn(len(vals)))
				if z.Get(idx) != vals[idx] {
					ok = false
					break
				}
			}
			done <- ok
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent Get returned a wrong value")
		}
	}
}

func TestCorruptBlockNamed(t *testing.T) {
	vals := make([]game.Value, 16*1024)
	for i := range vals {
		vals[i] = game.Value(i % 11)
	}
	z, err := Compress(pack(t, "corrupt", 4, vals), 1024)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.radb")
	if err := z.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(path); err != nil {
		t.Fatalf("clean file failed verification: %v", err)
	}

	// Flip a byte inside block 5's payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dataStart := len(raw) - 8 - len(z.data)
	off := dataStart + int(z.dir[5].off) + int(z.dir[5].encLen)/2
	raw[off] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyFile(path)
	if err == nil {
		t.Fatal("corrupt file passed verification")
	}
	if !strings.Contains(err.Error(), "block 5") {
		t.Errorf("error %q does not name block 5", err)
	}
	// The strict reader must reject it too (whole-file checksum).
	if _, err := Load(path); err == nil {
		t.Error("strict Load accepted a corrupt file")
	}
}

func TestStatSeesV2(t *testing.T) {
	vals := make([]game.Value, 8192)
	for i := range vals {
		vals[i] = 2
	}
	tab := pack(t, "statv2", 6, vals)
	z, err := Compress(tab, 4096)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pv1 := filepath.Join(dir, "v1.radb")
	pv2 := filepath.Join(dir, "v2.radb")
	if err := tab.Save(pv1); err != nil {
		t.Fatal(err)
	}
	if err := z.Save(pv2); err != nil {
		t.Fatal(err)
	}
	i1, err := db.Stat(pv1)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := db.Stat(pv2)
	if err != nil {
		t.Fatal(err)
	}
	if i1.Version != db.Version1 || i1.Compressed != 0 || i1.ServingBytes() != i1.Bytes {
		t.Errorf("v1 stat: %+v", i1)
	}
	if i2.Version != db.Version2 || i2.Name != "statv2" || i2.Entries != 8192 || i2.Bits != 6 {
		t.Errorf("v2 stat: %+v", i2)
	}
	if i2.Bytes != tab.Bytes() {
		t.Errorf("v2 raw bytes %d, want packed %d", i2.Bytes, tab.Bytes())
	}
	if i2.Compressed != z.Bytes() || i2.ServingBytes() != z.Bytes() {
		t.Errorf("v2 compressed %d (serving %d), want %d", i2.Compressed, i2.ServingBytes(), z.Bytes())
	}
	if i2.Compressed >= i2.Bytes {
		t.Errorf("constant table did not compress: %d >= %d", i2.Compressed, i2.Bytes)
	}
	// db.Load must point at zdb rather than failing opaquely.
	if _, err := db.Load(pv2); err == nil || !strings.Contains(err.Error(), "zdb") {
		t.Errorf("db.Load of a v2 file: %v", err)
	}
	// And zdb.Load must point back for v1 files.
	if _, err := Load(pv1); err == nil || !strings.Contains(err.Error(), "package db") {
		t.Errorf("zdb.Load of a v1 file: %v", err)
	}
}

func TestInflateMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]game.Value, 5000)
	for i := range vals {
		vals[i] = game.Value(rng.Intn(16))
	}
	tab := pack(t, "inflate", 4, vals)
	z := roundtrip(t, tab, 256)
	flat, err := z.Inflate()
	if err != nil {
		t.Fatal(err)
	}
	if flat.Size() != tab.Size() || flat.Bits() != tab.Bits() || flat.Name() != tab.Name() {
		t.Fatalf("inflate header mismatch")
	}
	for i := uint64(0); i < tab.Size(); i++ {
		if flat.Get(i) != tab.Get(i) {
			t.Fatalf("entry %d: %d != %d", i, flat.Get(i), tab.Get(i))
		}
	}
}

func TestEmptyAndTinyTables(t *testing.T) {
	z := roundtrip(t, pack(t, "one", 4, []game.Value{9}), 0)
	if z.BlockLen() != DefaultBlockLen || z.Blocks() != 1 {
		t.Errorf("single entry: blockLen %d, blocks %d", z.BlockLen(), z.Blocks())
	}
	if z.Get(0) != 9 {
		t.Errorf("Get(0) = %d, want 9", z.Get(0))
	}
	empty, err := db.NewTable("empty", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	ze := roundtrip(t, empty, 16)
	if ze.Size() != 0 || ze.Blocks() != 0 {
		t.Errorf("empty: size %d, blocks %d", ze.Size(), ze.Blocks())
	}
	if err := ze.Verify(); err != nil {
		t.Errorf("empty verify: %v", err)
	}
}

// BenchmarkZdbGet is the point-lookup benchmark: Get at uniform random
// indices of an awari-shaped table, which must allocate nothing.
func BenchmarkZdbGet(b *testing.B) {
	vals := awariShaped(256*1024, 1)
	tab, err := db.Pack("bench", awariBits, vals)
	if err != nil {
		b.Fatal(err)
	}
	z, err := Compress(tab, DefaultBlockLen)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	idx := make([]uint64, 8192)
	for i := range idx {
		idx[i] = uint64(rng.Intn(len(vals)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x := idx[i%len(idx)]; z.Get(x) != vals[x] {
			b.Fatal("wrong value")
		}
	}
}

// BenchmarkZdbColdGet strides a block and one entry per probe, on values
// shaped like an awari rung so the blocks are Huffman and RLE ones, and
// the entries walk every offset from the seek marks.
func BenchmarkZdbColdGet(b *testing.B) {
	tab, err := db.Pack("bench", awariBits, awariShaped(256*1024, 1))
	if err != nil {
		b.Fatal(err)
	}
	z, err := Compress(tab, DefaultBlockLen)
	if err != nil {
		b.Fatal(err)
	}
	if raw, narrow, rle, huff := z.CodecCounts(); huff == 0 || rle == 0 || raw+narrow != 0 {
		b.Fatalf("fixture compressed to %d raw, %d narrow, %d rle, %d huff blocks; want only rle and huff", raw, narrow, rle, huff)
	}
	stride := uint64(DefaultBlockLen + 1) // new block almost every probe
	b.ReportAllocs()
	b.ResetTimer()
	var i uint64
	for n := 0; n < b.N; n++ {
		z.Get(i % z.Size())
		i += stride
	}
}

// TestOpenSniffsVersion opens the same values stored flat (v1) and
// block-compressed (v2) and checks both answer every index alike; and
// that headers Open cannot serve — a bad magic, an unknown version, a
// truncated header and a retired .rafy family — are errors.
func TestOpenSniffsVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]game.Value, 3*DefaultBlockLen+17)
	for i := range vals {
		if i%500 < 300 {
			vals[i] = 2
		} else {
			vals[i] = game.Value(rng.Intn(16))
		}
	}
	tab := pack(t, "sniff", 4, vals)
	z, err := Compress(tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v1, v2 := filepath.Join(dir, "v1.radb"), filepath.Join(dir, "v2.radb")
	if err := tab.Save(v1); err != nil {
		t.Fatal(err)
	}
	if err := z.Save(v2); err != nil {
		t.Fatal(err)
	}
	r1, err := Open(v1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Open(v2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r1.(*db.Table); !ok {
		t.Errorf("Open(v1) = %T, want *db.Table", r1)
	}
	if _, ok := r2.(*Table); !ok {
		t.Errorf("Open(v2) = %T, want *zdb.Table", r2)
	}
	if r1.Name() != r2.Name() || r1.Size() != r2.Size() || r1.Bits() != r2.Bits() || r2.Bytes() >= r1.Bytes() {
		t.Errorf("v1 %q %d×%d %d B, v2 %q %d×%d %d B", r1.Name(), r1.Size(), r1.Bits(), r1.Bytes(),
			r2.Name(), r2.Size(), r2.Bits(), r2.Bytes())
	}
	for i := uint64(0); i < r1.Size(); i++ {
		if a, b := r1.Get(i), r2.Get(i); a != b || a != vals[i] {
			t.Fatalf("entry %d: v1 %d, v2 %d, want %d", i, a, b, vals[i])
		}
	}

	good, err := os.ReadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	v3 := bytes.Clone(good)
	v3[4] = 3
	family := []byte("RAFY\x01\x00\x00\x00\x0c\x00\x00\x00\x04\x00\x00\x00")
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"magic", append([]byte("RADX"), good[4:]...), "bad magic"},
		{"version", v3, "unsupported version 3"},
		{"truncated", good[:10], "reading header"},
		{"family", append(family, good...), "family format is retired"},
	} {
		path := filepath.Join(dir, tc.name+".radb")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(path); err == nil || r != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Open = %v, %v; want an error containing %q", tc.name, r, err, tc.want)
		}
	}
}

// v2File returns a v2 file of the given header fields and no directory
// or data, with a valid checksum, whatever the header claims.
func v2File(bits uint32, size uint64, blockLen, nBlocks uint32, dataLen uint64) []byte {
	b := []byte(db.Magic)
	b = binary.LittleEndian.AppendUint32(b, db.Version2)
	b = binary.LittleEndian.AppendUint32(b, bits)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint64(b, size)
	b = binary.LittleEndian.AppendUint32(b, blockLen)
	b = binary.LittleEndian.AppendUint32(b, nBlocks)
	b = binary.LittleEndian.AppendUint64(b, dataLen)
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, db.CRC64Table))
}

// ceilOverflowFile claims 2^64-100 one-bit entries in blocks of 2^32-1:
// size+blockLen-1 wraps, so a reader rounding up that way expects no
// blocks, accepts none, and its first Get indexes past them.
var ceilOverflowFile = v2File(1, ^uint64(0)-99, ^uint32(0), 0, 0)

// TestHeaderClaimsBounded checks a v2 header cannot make the reader
// accept a table it cannot answer, or allocate for blocks and data the
// stream does not hold.
func TestHeaderClaimsBounded(t *testing.T) {
	if _, err := Read(bytes.NewReader(ceilOverflowFile)); err == nil {
		t.Error("Read accepted a block count that only matches after overflow")
	}
	// 2^20 claimed blocks in a 48-byte stream: the directory must fail
	// at the stream's end, having allocated a bounded prefix of it.
	claim := v2File(4, 1<<20*DefaultBlockLen, DefaultBlockLen, 1<<20, 1<<40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(claim))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Read accepted a directory the stream does not hold")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("Read allocated %d bytes for a %d-byte stream", got, len(claim))
	}
	dir := t.TempDir()
	// One entry in a block of 2^22: verifying it needs one value of
	// scratch, not a block's worth.
	z, err := Compress(pack(t, "one", 4, []game.Value{3}), 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	one := filepath.Join(dir, "one.radb")
	if err := z.Save(one); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	_, err = VerifyFile(one)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("VerifyFile allocated %d bytes for a one-entry table", got)
	}
	for name, data := range map[string][]byte{
		"blocks": claim,
		"data":   v2File(4, 1, 1, 1, ^uint64(0)),
	} {
		path := filepath.Join(dir, name+".radb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "file holds") {
			t.Errorf("%s: Load = %v, want the claim checked against the file length", name, err)
		}
	}
}
