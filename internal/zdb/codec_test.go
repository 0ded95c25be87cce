package zdb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"retrograde/internal/game"
)

// awariBits is the entry width of the awari-shaped fixtures.
const awariBits = 4

// awariShaped returns n values shaped like an awari rung: 4-bit values
// from a skewed distribution in short runs (mean about 2.5 entries), which
// the Huffman codec wins, with every third block a plateau of long runs,
// which RLE wins. Uniform values (what the benchmarks used before) select
// neither codec and so never exercised their decoders.
func awariShaped(n int, seed int64) []game.Value {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]game.Value, n)
	for i := 0; i < n; {
		v := game.Value(0)
		for v < 1<<awariBits-1 && rng.Float64() < 0.6 {
			v++
		}
		stop := 0.4 // mean run 2.5
		if (i/DefaultBlockLen)%3 == 2 {
			stop = 1.0 / 64
		}
		run := 1
		for rng.Float64() >= stop {
			run++
		}
		for ; run > 0 && i < n; run-- {
			vals[i] = v
			i++
		}
	}
	return vals
}

// encodeAs encodes vals with one named codec, bypassing the smallest-wins
// selection, and returns the payload and the codec parameter.
func encodeAs(tb testing.TB, codec uint8, vals []game.Value, bits int) ([]byte, uint8) {
	tb.Helper()
	switch codec {
	case codecRaw:
		return packBits(nil, vals, 0, bits), 0
	case codecNarrow:
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		width := widthFor(hi - lo)
		return packBits(binary.LittleEndian.AppendUint16(nil, uint16(lo)), vals, lo, width), uint8(width)
	case codecRLE:
		return encodeRLE(nil, vals), 0
	case codecHuff:
		freqs := make([]uint32, 1<<bits)
		for _, v := range vals {
			freqs[v]++
		}
		for len(freqs) > 1 && freqs[len(freqs)-1] == 0 {
			freqs = freqs[:len(freqs)-1]
		}
		return encodeHuff(nil, vals, huffLengths(freqs)), 0
	}
	tb.Fatalf("no codec %d", codec)
	return nil, 0
}

// codecFixture returns one DefaultBlockLen block of awari-shaped values
// for the codec under test: a plateau block for RLE (the blocks it wins),
// a short-run block for the others.
func codecFixture(codec uint8) []game.Value {
	vals := awariShaped(3*DefaultBlockLen, 13)
	if codec == codecRLE {
		return vals[2*DefaultBlockLen:]
	}
	return vals[:DefaultBlockLen]
}

// oneBlockTable returns a table holding one encoded block of n values,
// seek index built.
func oneBlockTable(tb testing.TB, enc []byte, n, bits int, codec, param uint8) *Table {
	tb.Helper()
	z := &Table{name: "one-block", size: uint64(n), bits: bits, blockLen: n, data: enc,
		dir: []block{{encLen: uint32(len(enc)), codec: codec, param: param}}}
	if err := z.index(); err != nil {
		tb.Fatalf("%s n=%d: index: %v", codecName(codec), n, err)
	}
	return z
}

// TestDecodeEveryCodec decodes blocks of every codec and length, whole
// and by point lookups at every entry. Lengths straddle the seek marks;
// 5,000 entries pass the 4,369 at which 15-bit codes can put a mark past
// what 16 bits address, and a wide alphabet does put them there.
func TestDecodeEveryCodec(t *testing.T) {
	check := func(codec uint8, vals []game.Value, bits int, enc []byte, param uint8) {
		t.Helper()
		n := len(vals)
		got := make([]game.Value, n)
		if err := decodeBlock(enc, n, bits, codec, param, got); err != nil {
			t.Fatalf("%s n=%d: %v", codecName(codec), n, err)
		}
		z := oneBlockTable(t, enc, n, bits, codec, param)
		for i := range got {
			if got[i] != vals[i] {
				t.Fatalf("%s n=%d: entry %d = %d, want %d", codecName(codec), n, i, got[i], vals[i])
			}
			if v := z.Get(uint64(i)); v != vals[i] {
				t.Fatalf("%s n=%d: Get(%d) = %d, want %d", codecName(codec), n, i, v, vals[i])
			}
		}
		if len(enc) == 0 {
			return
		}
		// One byte short must be an error (or, where the dropped byte held
		// only padding, the same values), never a panic.
		if err := decodeBlock(enc[:len(enc)-1], n, bits, codec, param, got); err == nil {
			for i := range got {
				if got[i] != vals[i] {
					t.Fatalf("%s n=%d truncated: entry %d = %d, want %d", codecName(codec), n, i, got[i], vals[i])
				}
			}
		}
	}
	for codec := uint8(0); codec < numCodecs; codec++ {
		vals := codecFixture(codec)
		vals = append(vals, vals[:5000-len(vals)]...)
		for _, n := range []int{1, 2, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, DefaultBlockLen, 5000} {
			enc, param := encodeAs(t, codec, vals[:n], awariBits)
			check(codec, vals[:n], awariBits, enc, param)
		}
	}
	// A complete code of 2^15 15-bit codes, all past the primary table:
	// 5,000 values fill 75,000 bits, so the last marks sit past bit 65,535.
	lens := make([]uint8, 1<<15)
	for i := range lens {
		lens[i] = 15
	}
	rng := rand.New(rand.NewSource(29))
	wide := make([]game.Value, 5000)
	for i := range wide {
		wide[i] = game.Value(rng.Intn(len(lens)))
	}
	check(codecHuff, wide, 15, encodeHuff(nil, wide, lens), 0)
}

// sameEncoding reports how encodeBlock and the reference encoder differ
// on vals, or "" when they pick the same codec and parameter and emit the
// same bytes.
func sameEncoding(vals []game.Value, bits int) (string, uint8) {
	got, codec, param, err := encodeBlock([]byte{0xAA}, vals, bits)
	want, refCodec, refParam := encodeBlockRef([]byte{0xAA}, vals, bits)
	switch {
	case err != nil:
		return err.Error(), codec
	case codec != refCodec || param != refParam:
		return fmt.Sprintf("codec %s/%d, reference %s/%d", codecName(codec), param, codecName(refCodec), refParam), codec
	case string(got) != string(want):
		return fmt.Sprintf("%s payload differs (%d vs %d bytes)", codecName(codec), len(got), len(want)), codec
	}
	return "", codec
}

// TestEncodeBlockMatchesRef is the byte-identity gate of the one-pass
// encoder: on random streams of every width from 1 to 16 bits, in shapes
// that make each codec win, and on every block of the awari-shaped
// fixture, it must choose what the reference chooses and emit the same
// bytes — the property TestCompressGolden pins for whole tables.
func TestEncodeBlockMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var wins [numCodecs]int
	for bits := 1; bits <= 16; bits++ {
		top := 1<<bits - 1
		for _, n := range []int{1, 2, 3, 7, 64, 257, DefaultBlockLen} {
			for shape := 0; shape < 5; shape++ {
				vals := make([]game.Value, n)
				for i := range vals {
					switch shape {
					case 0: // uniform over the full width: raw or narrow
						vals[i] = game.Value(rng.Intn(top + 1))
					case 1: // a narrow band high in the range: narrow
						vals[i] = game.Value(top - rng.Intn(top/8+1))
					case 2: // long runs: RLE
						if i == 0 || rng.Intn(40) == 0 {
							vals[i] = game.Value(rng.Intn(top + 1))
						} else {
							vals[i] = vals[i-1]
						}
					case 3: // skewed, short runs: Huffman
						v := 0
						for v < top && rng.Float64() < 0.55 {
							v++
						}
						vals[i] = game.Value(v)
					case 4: // constant, one value at the top of the range
						vals[i] = game.Value(top)
					}
				}
				diff, codec := sameEncoding(vals, bits)
				if diff != "" {
					t.Fatalf("bits %d n %d shape %d: %s", bits, n, shape, diff)
				}
				wins[codec]++
			}
		}
	}
	vals := awariShaped(16*DefaultBlockLen, 7)
	for b := 0; b < len(vals); b += DefaultBlockLen {
		diff, codec := sameEncoding(vals[b:b+DefaultBlockLen], awariBits)
		if diff != "" {
			t.Fatalf("awari-shaped block %d: %s", b/DefaultBlockLen, diff)
		}
		wins[codec]++
	}
	for codec, n := range wins {
		if n == 0 {
			t.Errorf("no stream selected the %s codec; the differential check missed it", codecName(uint8(codec)))
		}
	}
}

// TestEncodeStreamWidth: the range the one pass finds is the width check,
// so the first value wider than the stream must still be named.
func TestEncodeStreamWidth(t *testing.T) {
	if _, _, _, err := EncodeStream(nil, []game.Value{1, 2, 8, 9}, 3); err == nil || !strings.Contains(err.Error(), "value 8 at 2 does not fit in 3 bits") {
		t.Errorf("3-bit stream holding 8: error %v", err)
	}
	for _, bits := range []int{0, 17} {
		if _, _, _, err := EncodeStream(nil, []game.Value{1}, bits); err == nil {
			t.Errorf("EncodeStream accepted width %d", bits)
		}
	}
	if _, _, _, err := EncodeStream(nil, []game.Value{0xFFFF, 0}, 16); err != nil {
		t.Errorf("16-bit stream: %v", err)
	}
}

// TestEncodeBlockWideAlphabet:a block with more distinct values than
// capped Huffman codes can name (over 1<<huffMaxLen, possible in a 16-bit
// stream of a 65,536-entry spill block) must still encode and round-trip;
// the multi-pass encoder looped forever flattening its frequencies.
func TestEncodeBlockWideAlphabet(t *testing.T) {
	vals := make([]game.Value, 1<<huffMaxLen+100)
	for i := range vals {
		vals[i] = game.Value(i * 7 % len(vals))
	}
	enc, codec, param, err := encodeBlock(nil, vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]game.Value, len(vals))
	if err := decodeBlock(enc, len(vals), 16, codec, param, got); err != nil {
		t.Fatalf("%s: %v", codecName(codec), err)
	}
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("%s: entry %d = %d, want %d", codecName(codec), i, got[i], vals[i])
		}
	}
}

// TestUnpackBitsWidths crosses every width, 0 (a constant fill) to 16,
// with lengths that end on and off byte boundaries.
func TestUnpackBitsWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for width := 0; width <= 16; width++ {
		for _, n := range []int{1, 3, 7, 8, 9, 31, 64, 65, 257} {
			vals := make([]game.Value, n)
			base := game.Value(0)
			if width < 16 {
				base = 3
			}
			for i := range vals {
				vals[i] = base
				if width > 0 {
					vals[i] += game.Value(rng.Intn(1 << width))
				}
			}
			enc := packBits(nil, vals, base, width)
			got := make([]game.Value, n)
			if !unpackBits(enc, n, base, width, got) {
				t.Fatalf("width %d n %d: reported truncated", width, n)
			}
			for i := range got {
				if got[i] != vals[i] {
					t.Fatalf("width %d n %d: entry %d = %d, want %d", width, n, i, got[i], vals[i])
				}
			}
			if width > 0 && unpackBits(enc[:len(enc)-1], n, base, width, got) {
				t.Fatalf("width %d n %d: accepted a payload one byte short", width, n)
			}
		}
	}
}

// huffBlock assembles a Huffman payload from explicit code lengths and
// bitstream bytes.
func huffBlock(lens []uint8, body ...byte) []byte {
	src := binary.LittleEndian.AppendUint16(nil, uint16(len(lens)-1))
	for i := 0; i < len(lens); i += 2 {
		b := lens[i]
		if i+1 < len(lens) {
			b |= lens[i+1] << 4
		}
		src = append(src, b)
	}
	return append(src, body...)
}

func TestHuffLengthTables(t *testing.T) {
	const bits = 6
	long := make([]uint8, 40) // one short code and 32 codes past the primary table
	long[0] = 1
	for i := 8; i < 40; i++ {
		long[i] = 12
	}
	// An odd alphabet leaves a padding nibble; a stray value there must
	// not be counted as a symbol's length.
	padded := huffBlock([]uint8{1, 2, 2}, 0b0_10_11_0_00)
	padded[3] |= 0xF0
	cases := []struct {
		name    string
		src     []byte
		n       int
		want    []game.Value
		wantErr string
	}{
		{"complete", huffBlock([]uint8{1, 2, 2}, 0b0_10_11_0_00), 4, []game.Value{0, 1, 2, 0}, ""},
		{"padding-nibble", padded, 4, []game.Value{0, 1, 2, 0}, ""},
		{"over-subscribed", huffBlock([]uint8{1, 1, 1}, 0), 2, nil, "over-subscribed"},
		{"over-subscribed-by-one-15", huffBlock([]uint8{1, 1, 15}, 0), 1, nil, "over-subscribed"},
		{"all-zero", huffBlock([]uint8{0, 0, 0, 0}, 0xFF), 1, nil, "no symbols"},
		{"single-symbol", huffBlock([]uint8{0, 0, 1}, 0), 8, []game.Value{2, 2, 2, 2, 2, 2, 2, 2}, ""},
		{"single-symbol-bad-bit", huffBlock([]uint8{0, 0, 1}, 0b0010_0000, 0, 0), 8, nil, "matches no symbol"},
		{"single-symbol-exhausted", huffBlock([]uint8{0, 0, 1}, 0), 9, nil, "exhausted"},
		{"long-codes", huffBlock(long, 0b0_1000000, 0b00000_0_10, 0b00000111, 0b11_000000), 4, []game.Value{0, 8, 0, 39}, ""},
		{"long-code-cut-short", huffBlock(long, 0b0_1000000, 0b00000_0_10, 0b00000111), 4, nil, "exhausted"},
		{"long-code-unassigned", huffBlock(long[:39], 0b1000_0001, 0b1111_0000, 0), 1, nil, "matches no symbol"},
		{"truncated-header", []byte{3}, 1, nil, "shorter than its header"},
		{"truncated-lengths", []byte{9, 0, 0x22}, 1, nil, "truncated in its length table"},
		{"symbol-too-wide", huffBlock(make([]uint8, 1<<bits+1), 0), 1, nil, "does not fit in 6 bits"},
	}
	for _, c := range cases {
		// The table path (decodeBlock) and the spill path (DecodeStream)
		// must both see the same decoder.
		for _, via := range []struct {
			name   string
			decode func([]byte, int, int, uint8, uint8, []game.Value) error
		}{{"decodeBlock", decodeBlock}, {"DecodeStream", DecodeStream}} {
			got := make([]game.Value, c.n)
			err := via.decode(c.src, c.n, bits, codecHuff, 0, got)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Errorf("%s via %s: error %v, want one containing %q", c.name, via.name, err, c.wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s via %s: %v", c.name, via.name, err)
			} else if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("%s via %s: decoded %v, want %v", c.name, via.name, got, c.want)
			}
		}
	}
}

// TestDecodeAllocatesNothing pins the decode paths' contract: decoding a
// block of any codec, and a point Get in one, allocates nothing.
func TestDecodeAllocatesNothing(t *testing.T) {
	out := make([]game.Value, DefaultBlockLen)
	for codec := uint8(0); codec < numCodecs; codec++ {
		vals := codecFixture(codec)
		enc, param := encodeAs(t, codec, vals, awariBits)
		if a := testing.AllocsPerRun(20, func() {
			if err := decodeBlock(enc, len(vals), awariBits, codec, param, out); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("decoding a %s block allocates %v times", codecName(codec), a)
		}

		z := oneBlockTable(t, enc, len(vals), awariBits, codec, param)
		i := uint64(0)
		if a := testing.AllocsPerRun(20, func() {
			i = (i + 1013) % z.size
			if got := z.Get(i); got != vals[i] {
				t.Fatalf("Get(%d) = %d, want %d", i, got, vals[i])
			}
		}); a != 0 {
			t.Errorf("a Get in a %s block allocates %v times", codecName(codec), a)
		}
		// AllocsPerRun's warm-up call and 20 runs.
		if st := z.Stats(); st.Lookups != 21 {
			t.Errorf("%s: %+v, want 21 lookups", codecName(codec), st)
		}
	}
}

// BenchmarkDecodeBlock times one 4096-entry block per codec on the
// awari-shaped fixture and reports ns/entry.
func BenchmarkDecodeBlock(b *testing.B) {
	for codec := uint8(0); codec < numCodecs; codec++ {
		vals := codecFixture(codec)
		enc, param := encodeAs(b, codec, vals, awariBits)
		out := make([]game.Value, len(vals))
		b.Run(codecName(codec), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if err := decodeBlock(enc, len(vals), awariBits, codec, param, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/entry")
		})
	}
}
