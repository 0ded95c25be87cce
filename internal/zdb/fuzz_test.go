package zdb

import (
	"bytes"
	"testing"

	"retrograde/internal/db"
	"retrograde/internal/game"
)

// FuzzZdbRoundtrip drives the compressed-database codec from both ends:
// arbitrary bytes fed to Read must error cleanly (never panic, never
// return a corrupt table as valid, and a table it accepts answers Get at
// its first and last entries), and a table built from arbitrary
// values must survive Compress -> WriteTo -> Read -> Unpack bit-exactly,
// and answer Get at every index with the value put in.
func FuzzZdbRoundtrip(f *testing.F) {
	f.Add([]byte("zdb1 not really a database"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00}, 64))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 9, 9, 9, 9})
	f.Add(ceilOverflowFile)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Corrupt-input safety: whatever Read makes of the bytes, it must
		// not panic; an error is the expected outcome for garbage.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Read panicked on %d input bytes: %v", len(data), r)
				}
			}()
			if z, err := Read(bytes.NewReader(data)); err == nil && z.Size() > 0 {
				z.Get(0)
				z.Get(z.Size() - 1)
			}
		}()

		if len(data) == 0 {
			return
		}
		// Roundtrip: the same bytes reinterpreted as 4-bit values.
		values := make([]game.Value, len(data))
		for i, b := range data {
			values[i] = game.Value(b & 0x0F)
		}
		raw, err := db.Pack("fuzz", 4, values)
		if err != nil {
			t.Fatalf("pack: %v", err)
		}
		blockLen := 16 + int(data[0])%1024
		ct, err := Compress(raw, blockLen)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		var buf bytes.Buffer
		if _, err := ct.WriteTo(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		got, err := back.Unpack()
		if err != nil {
			t.Fatalf("unpack: %v", err)
		}
		if len(got) != len(values) {
			t.Fatalf("roundtrip length %d, want %d", len(got), len(values))
		}
		for i := range values {
			if got[i] != values[i] {
				t.Fatalf("value %d roundtripped to %d, want %d (blockLen %d)", i, got[i], values[i], blockLen)
			}
			if v := back.Get(uint64(i)); v != values[i] {
				t.Fatalf("Get(%d) = %d, want %d (blockLen %d)", i, v, values[i], blockLen)
			}
		}
	})
}

// FuzzEncodeBlock is the differential check of the one-pass encoder
// against the multi-pass one it replaced (encodeBlockRef): for an
// arbitrary stream at any width from 1 to 16 bits, both choose the same
// codec and parameter and emit the same bytes. Each value is two input
// bytes masked to the width. Streams stop at 1<<huffMaxLen values, where
// the reference never returns on an alphabet too wide for capped code
// lengths (TestEncodeBlockWideAlphabet covers that case).
func FuzzEncodeBlock(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 3}, uint8(3))
	f.Add(bytes.Repeat([]byte{0xFF, 0xFF}, 300), uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		bits := 1 + int(width)%16
		n := min(len(data)/2, 1<<huffMaxLen)
		if n == 0 {
			return
		}
		vals := make([]game.Value, n)
		for i := range vals {
			vals[i] = game.Value(uint16(data[2*i])|uint16(data[2*i+1])<<8) & game.Value(1<<bits-1)
		}
		if diff, _ := sameEncoding(vals, bits); diff != "" {
			t.Fatalf("bits %d n %d: %s", bits, n, diff)
		}
	})
}

// FuzzHuffDecode is the differential check of the table-driven Huffman
// decoder against the bit-serial one it replaced (decodeHuffRef): for an
// arbitrary code-length table, bitstream and value count, both return the
// same values or both fail, and neither panics. The one sanctioned
// difference is an over-subscribed length table, which the reference
// decodes by first match and decodeHuff must reject. The seek path is
// checked against decodeHuff the same way: where it decodes, the
// load-time walk succeeds and a point decode from its marks reproduces
// every value; where it fails, the walk fails too.
func FuzzHuffDecode(f *testing.F) {
	f.Add([]byte{1, 2, 2}, []byte{0b0_10_11_0_00}, uint16(3))
	f.Fuzz(func(t *testing.T, lens, body []byte, count uint16) {
		if len(lens) == 0 || len(lens) > 1<<12 {
			return
		}
		n := 1 + int(count)%(2*DefaultBlockLen)
		kraft := 0 // in units of 2^-huffMaxLen
		for i := range lens {
			lens[i] &= 0xF
			if lens[i] > 0 {
				kraft += 1 << (huffMaxLen - lens[i])
			}
		}
		src := huffBlock(lens, body...)
		got := make([]game.Value, n)
		err := decodeHuff(src, n, 16, got)
		if kraft > 1<<huffMaxLen {
			if err == nil {
				t.Fatalf("over-subscribed length table %v decoded", lens)
			}
			return
		}
		marks, walkErr := huffMarks(nil, src, n, 16)
		if (err == nil) != (walkErr == nil) {
			t.Fatalf("lens %v body %x n %d: decodeHuff error %v, seek-index walk error %v", lens, body, n, err, walkErr)
		}
		want := make([]game.Value, n)
		refErr := decodeHuffRef(src, n, 16, want)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("lens %v body %x n %d: decodeHuff error %v, reference error %v", lens, body, n, err, refErr)
		}
		if err != nil {
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lens %v body %x n %d: value %d = %d, reference %d", lens, body, n, i, got[i], want[i])
			}
			if v, err := huffAt(src, 16, marks, i); err != nil || v != got[i] {
				t.Fatalf("lens %v body %x n %d: point decode of value %d = %d, %v; want %d", lens, body, n, i, v, err, got[i])
			}
		}
	})
}
