package zdb

import (
	"encoding/binary"

	"retrograde/internal/game"
)

// encodeBlockRef is the multi-pass encoder the format shipped with: a
// min/max pass, an exact RLE sizing pass and a histogram pass for every
// block, and a Huffman emitter that flushes a byte at a time. It is kept
// only as the reference TestEncodeBlockMatchesRef and FuzzEncodeBlock
// compare the one-pass encodeBlock against: both must pick the same codec
// and parameter and emit the same bytes.
func encodeBlockRef(dst []byte, vals []game.Value, bits int) ([]byte, uint8, uint8) {
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	width := widthFor(hi - lo)
	rawLen := (len(vals)*bits + 7) / 8
	narrowLen := 2 + (len(vals)*width+7)/8

	best, bestLen := uint8(codecRaw), rawLen
	if narrowLen < bestLen {
		best, bestLen = codecNarrow, narrowLen
	}
	if rleLen := rleSizeRef(vals); rleLen < bestLen {
		best, bestLen = codecRLE, rleLen
	}
	var lens []uint8
	if lo != hi {
		freqs := make([]uint32, int(hi)+1)
		for _, v := range vals {
			freqs[v]++
		}
		lens = huffLengths(freqs)
		if hl := huffSize(lens, freqs); hl < bestLen {
			best, bestLen = codecHuff, hl
		}
	}
	switch best {
	case codecNarrow:
		dst = binary.LittleEndian.AppendUint16(dst, uint16(lo))
		return packBits(dst, vals, lo, width), codecNarrow, uint8(width)
	case codecRLE:
		return encodeRLE(dst, vals), codecRLE, 0
	case codecHuff:
		return encodeHuffRef(dst, vals, lens), codecHuff, 0
	default:
		return packBits(dst, vals, 0, bits), codecRaw, 0
	}
}

// rleSizeRef sizes codecRLE by encoding every uvarint into a scratch
// buffer.
func rleSizeRef(vals []game.Value) int {
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

// encodeHuffRef is the byte-at-a-time Huffman emitter.
func encodeHuffRef(dst []byte, vals []game.Value, lens []uint8) []byte {
	codes := huffCanonical(lens)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(lens)-1))
	for i := 0; i < len(lens); i += 2 {
		b := lens[i]
		if i+1 < len(lens) {
			b |= lens[i+1] << 4
		}
		dst = append(dst, b)
	}
	var acc uint32
	nbits := 0
	for _, v := range vals {
		l := int(lens[v])
		acc = acc<<l | uint32(codes[v])
		nbits += l
		for nbits >= 8 {
			dst = append(dst, byte(acc>>(nbits-8)))
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc<<(8-nbits)))
	}
	return dst
}
