package zdb

import (
	"encoding/binary"
	"fmt"

	"retrograde/internal/game"
)

// decodeHuffRef is the bit-serial canonical-Huffman decoder the format
// shipped with: one loop iteration per bit, first match wins. It is kept
// only as the reference FuzzHuffDecode and the unit tests compare the
// table-driven decodeHuff against. It predates length-table validation,
// so it decodes over-subscribed tables (by first match) that decodeHuff
// rejects; callers comparing the two skip those.
func decodeHuffRef(src []byte, n int, bits int, out []game.Value) error {
	if len(src) < 2 {
		return fmt.Errorf("zdb: huffman block shorter than its header")
	}
	maxSym := int(binary.LittleEndian.Uint16(src))
	if maxSym >= 1<<bits {
		return fmt.Errorf("zdb: huffman symbol %d does not fit in %d bits", maxSym, bits)
	}
	alpha := maxSym + 1
	lensBytes := (alpha + 1) / 2
	if len(src) < 2+lensBytes {
		return fmt.Errorf("zdb: huffman block truncated in its length table")
	}
	lens := make([]uint8, alpha)
	for i := range lens {
		b := src[2+i/2]
		if i%2 == 1 {
			b >>= 4
		}
		lens[i] = b & 0xF
	}
	// Canonical decode tables: first code and first rank per length, and
	// symbols sorted by (length, symbol).
	var count [huffMaxLen + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0 // absent symbols get no code
	var firstCode, firstRank [huffMaxLen + 2]uint16
	code, rank := uint16(0), uint16(0)
	for l := 1; l <= huffMaxLen; l++ {
		code = (code + count[l-1]) << 1
		firstCode[l] = code
		firstRank[l] = rank
		rank += count[l]
	}
	syms := make([]uint16, 0, alpha)
	for l := uint8(1); l <= huffMaxLen; l++ {
		for s, sl := range lens {
			if sl == l {
				syms = append(syms, uint16(s))
			}
		}
	}
	body := src[2+lensBytes:]
	bitPos := 0
	totalBits := len(body) * 8
	for i := 0; i < n; i++ {
		c := uint16(0)
		matched := false
		for l := 1; l <= huffMaxLen; l++ {
			if bitPos >= totalBits {
				return fmt.Errorf("zdb: huffman bitstream exhausted at value %d", i)
			}
			c = c<<1 | uint16(body[bitPos/8]>>(7-bitPos%8)&1)
			bitPos++
			if count[l] > 0 && c >= firstCode[l] && c-firstCode[l] < count[l] {
				out[i] = game.Value(syms[firstRank[l]+c-firstCode[l]])
				matched = true
				break
			}
		}
		if !matched {
			return fmt.Errorf("zdb: huffman code at value %d matches no symbol", i)
		}
	}
	return nil
}
