package zdb

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"retrograde/internal/game"
)

// TestConcurrentGet hammers one table from several goroutines, half the
// probes crowding four blocks so callers decode the same blocks at once.
// Get holds no lock, so this is a -race check of the shared seek index
// and lookup counter.
func TestConcurrentGet(t *testing.T) {
	const callers, gets = 8, 4000
	vals := awariShaped(32*1024, 3)
	flat := pack(t, "concurrent", awariBits, vals)
	z := roundtrip(t, flat, 256) // 128 blocks
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < gets; i++ {
				idx := uint64(rng.Intn(4 * 256))
				if i%2 == 0 {
					idx = uint64(rng.Intn(len(vals)))
				}
				if got, want := z.Get(idx), flat.Get(idx); got != want {
					t.Errorf("Get(%d) = %d, want %d", idx, got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if st := z.Stats(); st.Lookups != callers*gets {
		t.Errorf("%d lookups counted for %d Gets", st.Lookups, callers*gets)
	}
}

// TestGetDecodeErrorPanics corrupts one block of a loaded table in core,
// past what Read could catch: Get must panic naming the block, and the
// table must keep answering from its other blocks.
func TestGetDecodeErrorPanics(t *testing.T) {
	vals := awariShaped(8*256, 4)
	flat := pack(t, "corrupt-in-core", awariBits, vals)
	z := roundtrip(t, flat, 256)
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
	}
	if got := z.Get(5); got != vals[5] {
		t.Errorf("Get(5) after the panic = %d, want %d", got, vals[5])
	}
	if st := z.Stats(); st.Lookups != 3 {
		t.Errorf("stats %+v, want 3 lookups", st)
	}
}

// TestStatsCountsLookups: every Get counts once, whatever block it lands
// in and however often.
func TestStatsCountsLookups(t *testing.T) {
	vals := make([]game.Value, 4*64)
	z := roundtrip(t, pack(t, "stats", 4, vals), 64)
	for _, idx := range []uint64{0, 1, 64, 2, 128, 0, 129} {
		z.Get(idx)
	}
	if got, want := z.Stats(), (Stats{Lookups: 7}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}

// oversubscribe rewrites the code-length table of Huffman block b so
// that every symbol has a 1-bit code, which no prefix code can have, and
// recomputes the block's CRC-32; WriteTo recomputes the file's CRC-64. It
// returns false when the table has no Huffman block b.
func oversubscribe(z *Table, b int) bool {
	d := &z.dir[b]
	if d.codec != codecHuff {
		return false
	}
	enc := z.encoded(b)
	alpha := int(binary.LittleEndian.Uint16(enc)) + 1
	for i := 2; i < 2+(alpha+1)/2; i++ {
		enc[i] = 0x11
	}
	d.crc = crc32.ChecksumIEEE(enc)
	return true
}

// TestReadRejectsUndecodableBlock: a file whose checksums all hold but
// one of whose blocks cannot decode must fail to load with an error that
// names the block, not load and leave Get to panic in a server worker.
func TestReadRejectsUndecodableBlock(t *testing.T) {
	vals := awariShaped(8*256, 9)
	z, err := Compress(pack(t, "undecodable", awariBits, vals), 256)
	if err != nil {
		t.Fatal(err)
	}
	if !oversubscribe(z, 5) {
		t.Fatalf("block 5 is %s, want huff", codecName(z.dir[5].codec))
	}
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = Read(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "block 5 ") || !strings.Contains(err.Error(), "over-subscribed") {
		t.Errorf("Read of a file with an undecodable block 5: error %v", err)
	}
}
