package zdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"retrograde/internal/game"
)

// Block codecs. The writer encodes every block with each candidate and
// keeps the smallest; the directory records the winner per block, so a
// table freely mixes codecs.
const (
	// codecRaw stores the block's values packed at the table's full entry
	// width, LSB-first into a little-endian byte stream.
	codecRaw = iota
	// codecNarrow stores a uint16 base followed by (value - base) packed
	// at the narrowest width that covers the block's range (the codec
	// parameter). Width 0 encodes a constant block in two bytes.
	codecNarrow
	// codecRLE stores (run length, value) pairs as uvarints — the win on
	// endgame tables whose long stretches of identical values (drawn
	// regions, forced-capture plateaus) collapse to a few bytes.
	codecRLE
	// codecHuff stores canonical-Huffman-coded values (see huff.go) — the
	// win on awari rungs, whose values concentrate well below the packed
	// width but whose runs are too short for RLE.
	codecHuff

	numCodecs
)

// codecName renders a codec id for error messages and stats.
func codecName(c uint8) string {
	switch c {
	case codecRaw:
		return "raw"
	case codecNarrow:
		return "narrow"
	case codecRLE:
		return "rle"
	case codecHuff:
		return "huff"
	}
	return fmt.Sprintf("codec-%d", c)
}

// packBits appends vals-minus-base packed at width bits, LSB-first, to
// dst. Width 0 appends nothing.
func packBits(dst []byte, vals []game.Value, base game.Value, width int) []byte {
	if width == 0 {
		return dst
	}
	var acc uint64
	nbits := 0
	for _, v := range vals {
		acc |= uint64(v-base) << nbits
		nbits += width
		for nbits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// unpackBits decodes n values of width bits from src into out[:n],
// adding base. It reports whether src held enough bits.
func unpackBits(src []byte, n int, base game.Value, width int, out []game.Value) bool {
	if width == 0 {
		fillValues(out[:n], base)
		return true
	}
	if len(src)*8 < n*width {
		return false
	}
	var acc uint64
	nbits := 0
	pos := 0
	mask := uint64(1)<<width - 1
	for i := 0; i < n; i++ {
		for nbits < width {
			acc |= uint64(src[pos]) << nbits
			pos++
			nbits += 8
		}
		out[i] = base + game.Value(acc&mask)
		acc >>= width
		nbits -= width
	}
	return true
}

// fillValues sets every element of out to v.
func fillValues(out []game.Value, v game.Value) {
	// Short runs are the common case (awari runs average two to three
	// entries); long ones double a filled prefix with copy.
	head := out
	if len(head) > 16 {
		head = head[:16]
	}
	for i := range head {
		head[i] = v
	}
	for filled := len(head); filled < len(out); filled *= 2 {
		copy(out[filled:], out[:filled])
	}
}

// widthFor returns the bits needed to store span (0 for span 0).
func widthFor(span game.Value) int {
	w := 0
	for span > 0 {
		w++
		span >>= 1
	}
	return w
}

// encodeBlock encodes vals with the smallest codec and appends the
// payload to dst, returning the grown dst, the codec and its parameter.
// Ties go to the earlier codec in raw, narrow, RLE, Huffman order. A value
// wider than bits is an error.
//
// One pass finds the range, which also checks the width, and the run
// count. The two entropy-style codecs are then sized only while a lower
// bound says they can still win: Huffman spends at least one bit per
// value after its header, RLE at least two bytes per run. Huffman is
// sized first, so the RLE bound is checked against it too and the exact
// RLE walk is skipped on the short-run blocks Huffman wins.
func encodeBlock(dst []byte, vals []game.Value, bits int) ([]byte, uint8, uint8, error) {
	lo, hi, runs := vals[0], vals[0], 1
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		lo = min(lo, v)
		hi = max(hi, v)
		if v != vals[i-1] {
			runs++
		}
	}
	if bits < 16 && hi >= 1<<bits {
		i := slices.IndexFunc(vals, func(v game.Value) bool { return v >= 1<<bits })
		return nil, 0, 0, fmt.Errorf("zdb: value %d at %d does not fit in %d bits", vals[i], i, bits)
	}
	width := widthFor(hi - lo)
	rawLen := (len(vals)*bits + 7) / 8
	narrowLen := 2 + (len(vals)*width+7)/8

	best, bestLen := uint8(codecRaw), rawLen
	if narrowLen < bestLen {
		best, bestLen = codecNarrow, narrowLen
	}
	var lens []uint8
	huffLen := math.MaxInt
	if lo != hi && 2+(int(hi)+2)/2+(len(vals)+7)/8 < bestLen {
		freqs := make([]uint32, int(hi)+1)
		for _, v := range vals {
			freqs[v]++
		}
		if lens = huffLengths(freqs); lens != nil {
			huffLen = huffSize(lens, freqs)
		}
	}
	if 2*runs < bestLen && 2*runs <= huffLen {
		if rleLen := rleSize(vals); rleLen < bestLen && rleLen <= huffLen {
			best, bestLen = codecRLE, rleLen
		}
	}
	if huffLen < bestLen {
		best = codecHuff
	}
	switch best {
	case codecNarrow:
		dst = binary.LittleEndian.AppendUint16(dst, uint16(lo))
		return packBits(dst, vals, lo, width), codecNarrow, uint8(width), nil
	case codecRLE:
		return encodeRLE(dst, vals), codecRLE, 0, nil
	case codecHuff:
		return encodeHuff(dst, vals, lens), codecHuff, 0, nil
	default:
		return packBits(dst, vals, 0, bits), codecRaw, 0, nil
	}
}

// rleSize returns the exact encoded size of vals under codecRLE without
// materialising it.
func rleSize(vals []game.Value) int {
	size := 0
	var buf [binary.MaxVarintLen64]byte
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		size += binary.PutUvarint(buf[:], uint64(j-i))
		size += binary.PutUvarint(buf[:], uint64(vals[i]))
		i = j
	}
	return size
}

// encodeRLE appends (run length, value) uvarint pairs to dst.
func encodeRLE(dst []byte, vals []game.Value) []byte {
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = binary.AppendUvarint(dst, uint64(vals[i]))
		i = j
	}
	return dst
}

// rleRun parses the (run length, value) pair at the head of src, whose
// run starts at value start of an n-value block, and returns the run, its
// value and the rest of src.
func rleRun(src []byte, start, n, bits int) (int, game.Value, []byte, error) {
	var run, v uint64
	if len(src) >= 2 && src[0]|src[1] < 0x80 {
		// Both uvarints are single bytes: every run under 128 of a value
		// under 128, which is nearly all of them.
		run, v = uint64(src[0]), uint64(src[1])
		src = src[2:]
	} else {
		var r1, r2 int
		if run, r1 = binary.Uvarint(src); r1 <= 0 {
			return 0, 0, nil, fmt.Errorf("zdb: rle run length malformed at value %d", start)
		}
		if v, r2 = binary.Uvarint(src[r1:]); r2 <= 0 {
			return 0, 0, nil, fmt.Errorf("zdb: rle value malformed at value %d", start)
		}
		src = src[r1+r2:]
	}
	if run == 0 || run > uint64(n-start) {
		return 0, 0, nil, fmt.Errorf("zdb: rle run of %d overflows block (%d of %d decoded)", run, start, n)
	}
	if v >= 1<<bits {
		return 0, 0, nil, fmt.Errorf("zdb: rle value %d does not fit in %d bits", v, bits)
	}
	return int(run), game.Value(v), src, nil
}

// decodeRLE decodes (run length, value) uvarint pairs covering n values
// into out[:n].
func decodeRLE(src []byte, n int, bits int, out []game.Value) error {
	for i := 0; i < n; {
		run, v, rest, err := rleRun(src, i, n, bits)
		if err != nil {
			return err
		}
		fillValues(out[i:i+run], v)
		src, i = rest, i+run
	}
	return nil
}

// rleAt returns value i of an RLE block of n values, walking the runs up
// to the one that covers i without filling them.
func rleAt(src []byte, i, n, bits int) (game.Value, error) {
	for start := 0; ; {
		run, v, rest, err := rleRun(src, start, n, bits)
		if err != nil {
			return 0, err
		}
		if start += run; i < start {
			return v, nil
		}
		src = rest
	}
}

// bitsAt returns the i-th width-bit field of an LSB-first packed stream,
// reporting whether src holds it.
func bitsAt(src []byte, i, width int) (game.Value, bool) {
	bit := i * width
	end := bit + width
	if end > 8*len(src) {
		return 0, false
	}
	var w uint32
	for p := bit >> 3; p < (end+7)>>3; p++ {
		w |= uint32(src[p]) << (8 * (p - bit>>3))
	}
	return game.Value(w >> (bit & 7) & (1<<width - 1)), true
}

// decodeBlock decodes an encoded block of n values into out[:n].
func decodeBlock(src []byte, n int, bits int, codec, param uint8, out []game.Value) error {
	switch codec {
	case codecRaw:
		if !unpackBits(src, n, 0, bits, out) {
			return fmt.Errorf("zdb: raw block truncated (%d bytes for %d×%d bits)", len(src), n, bits)
		}
	case codecNarrow:
		if len(src) < 2 {
			return fmt.Errorf("zdb: narrow block shorter than its base")
		}
		base := game.Value(binary.LittleEndian.Uint16(src))
		if int(param) > bits {
			return fmt.Errorf("zdb: narrow width %d exceeds entry width %d", param, bits)
		}
		if !unpackBits(src[2:], n, base, int(param), out) {
			return fmt.Errorf("zdb: narrow block truncated (%d bytes for %d×%d bits)", len(src), n, param)
		}
	case codecRLE:
		return decodeRLE(src, n, bits, out)
	case codecHuff:
		return decodeHuff(src, n, bits, out)
	default:
		return fmt.Errorf("zdb: unknown codec %d", codec)
	}
	return nil
}
