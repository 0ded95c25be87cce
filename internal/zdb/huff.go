package zdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"retrograde/internal/game"
)

// Canonical Huffman codec (codecHuff). Awari tables concentrate their
// values — order-0 entropy sits a full bit or more below the packed
// width on every measured rung — but their runs are short (average ~2.5
// entries), so run-length coding loses where entropy coding wins. The
// payload is:
//
//	maxSym u16                      largest symbol present
//	lens   ceil((maxSym+1)/2) bytes 4-bit code lengths, low nibble first
//	bits   MSB-first bitstream of canonical codes
//
// Code lengths are capped at huffMaxLen so a length always fits a
// nibble; canonical assignment (sorted by length, then symbol) makes
// the lengths alone sufficient to rebuild the code.
const huffMaxLen = 15

// huffLengths returns capped canonical code lengths for freqs (0 for
// absent symbols). At least two symbols must be present. It returns nil
// when more than 1<<huffMaxLen are: no prefix code whose lengths fit the
// cap has that many codes, and flattening would never converge.
func huffLengths(freqs []uint32) []uint8 {
	f := make([]uint64, len(freqs))
	present := 0
	for i, c := range freqs {
		f[i] = uint64(c)
		if c > 0 {
			present++
		}
	}
	if present > 1<<huffMaxLen {
		return nil
	}
	for {
		lens := huffBuild(f)
		maxLen := uint8(0)
		for _, l := range lens {
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen <= huffMaxLen {
			return lens
		}
		// Flatten the distribution and retry; converges quickly and only
		// triggers on pathological skew.
		for i := range f {
			if f[i] > 1 {
				f[i] = (f[i] + 1) / 2
			}
		}
	}
}

// huffBuild computes optimal code lengths by the sorted two-queue
// method.
func huffBuild(freqs []uint64) []uint8 {
	type node struct {
		weight      uint64
		left, right int // -1 for leaves
		sym         int
	}
	var nodes []node
	for s, f := range freqs {
		if f > 0 {
			nodes = append(nodes, node{weight: f, left: -1, right: -1, sym: s})
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].weight < nodes[j].weight })
	leaves := len(nodes)
	// Two queues: leaves (sorted) and internal nodes (built in
	// nondecreasing weight order); the two lightest roots are always at
	// one of the two queue fronts.
	li, ii := 0, leaves
	pop := func() int {
		if li < leaves && (ii >= len(nodes) || nodes[li].weight <= nodes[ii].weight) {
			li++
			return li - 1
		}
		ii++
		return ii - 1
	}
	for remaining := leaves; remaining > 1; remaining-- {
		a := pop()
		b := pop()
		nodes = append(nodes, node{weight: nodes[a].weight + nodes[b].weight, left: a, right: b})
	}
	lens := make([]uint8, len(freqs))
	if leaves == 1 {
		lens[nodes[0].sym] = 1
		return lens
	}
	// Depth-first from the root (the last internal node).
	type frame struct {
		n     int
		depth uint8
	}
	stack := []frame{{len(nodes) - 1, 0}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[fr.n]
		if nd.left < 0 {
			lens[nd.sym] = fr.depth
			continue
		}
		stack = append(stack, frame{nd.left, fr.depth + 1}, frame{nd.right, fr.depth + 1})
	}
	return lens
}

// huffCanonical assigns canonical codes from lengths: symbols sorted by
// (length, symbol) get consecutive codes. Returns per-symbol codes.
func huffCanonical(lens []uint8) []uint16 {
	var count [huffMaxLen + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0 // absent symbols get no code
	var next [huffMaxLen + 1]uint16
	code := uint16(0)
	for l := 1; l <= huffMaxLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// huffSize returns the encoded byte size for vals under lens.
func huffSize(lens []uint8, freqs []uint32) int {
	bits := 0
	for s, l := range lens {
		bits += int(l) * int(freqs[s])
	}
	return 2 + (len(lens)+1)/2 + (bits+7)/8
}

// encodeHuff appends the canonical-Huffman encoding of vals to dst. Codes
// collect in a 64-bit accumulator; after each code the pending bits (at
// most 7 + 15) are stored MSB-first as one 8-byte word at the current
// byte, and the position advances by the bytes they complete, so the loop
// has no data-dependent branch. dst is grown for 15 bits per value plus
// the last store's 8-byte overhang.
func encodeHuff(dst []byte, vals []game.Value, lens []uint8) []byte {
	codes := huffCanonical(lens)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(lens)-1))
	for i := 0; i < len(lens); i += 2 {
		b := lens[i]
		if i+1 < len(lens) {
			b |= lens[i+1] << 4
		}
		dst = append(dst, b)
	}
	start := len(dst)
	dst = slices.Grow(dst, (len(vals)*huffMaxLen+7)/8+8)
	out := dst[start:cap(dst)]
	pos := 0
	var acc uint64
	nbits := uint(0)
	for _, v := range vals {
		l := uint(lens[v])
		acc = acc<<(l&63) | uint64(codes[v])
		nbits += l
		binary.BigEndian.PutUint64(out[pos:], acc<<((64-nbits)&63))
		pos += int(nbits >> 3)
		nbits &= 7
	}
	if nbits > 0 {
		pos++
	}
	return dst[:start+pos]
}

// huffTableBits caps the primary decode table of a whole-block decode at
// 2^10 entries (4 KiB of uint32 on the stack). The table is rebuilt for
// every block and a block holds only a few thousand symbols, so what a
// larger table, or one that resolves two symbols per lookup, saves in the
// loop it spends on the fill (measured; see DESIGN.md, key design
// decisions).
const huffTableBits = 10

// huffPointBits caps the primary table of a point decode at 2^6 entries.
// A point decode resolves at most markEvery symbols, so the table fill is
// a large share of it and a small table wins although more codes take the
// long-code walk (BenchmarkZdbColdGet swept 2^4..2^10; EXPERIMENTS.md,
// E11d).
const huffPointBits = 6

// huffStackSyms is how many long-code symbols (codes longer than the
// primary table) fit the decoder's stack scratch; awari alphabets
// (≤ 64 symbols) never exceed it, so their decode allocates nothing.
const huffStackSyms = 64

// huffDecoder is the per-block decode state, built on the caller's stack.
//
// Codes of up to tbits bits resolve with one lookup in table, indexed by
// the next tbits bits of the stream; an entry is symbol<<4 | length, and
// length 0 marks a prefix that belongs to a longer code or to no code at
// all. Those fall back to the canonical walk over lengths tbits+1..maxLen:
// a code of length l is firstCode[l] + its rank among that length's
// symbols, and syms lists the long codes' symbols in (length, symbol)
// order, firstRank[l] being where length l starts.
//
// The caller points table (zeroed, a power of two long) and syms at its
// own stack arrays before calling build: assigning them here would move
// them to the heap.
type huffDecoder struct {
	table                       []uint32
	count, firstCode, firstRank [huffMaxLen + 1]uint32
	syms                        []uint16
	tbits, maxLen               int
}

// build parses a Huffman block's header, checks it against the entry
// width, and builds the decode tables. It returns the bitstream.
func (d *huffDecoder) build(src []byte, bits int) ([]byte, error) {
	if len(src) < 2 {
		return nil, fmt.Errorf("zdb: huffman block shorter than its header")
	}
	maxSym := int(binary.LittleEndian.Uint16(src))
	if maxSym >= 1<<bits {
		return nil, fmt.Errorf("zdb: huffman symbol %d does not fit in %d bits", maxSym, bits)
	}
	alpha := maxSym + 1
	lensBytes := (alpha + 1) / 2
	if len(src) < 2+lensBytes {
		return nil, fmt.Errorf("zdb: huffman block truncated in its length table")
	}
	nibbles := src[2 : 2+lensBytes]
	nLong, err := d.init(nibbles, alpha)
	if err != nil {
		return nil, err
	}
	if nLong > len(d.syms) {
		d.syms = make([]uint16, nLong)
	}
	d.fill(nibbles, alpha)
	return src[2+lensBytes:], nil
}

// init reads a block's packed code lengths (one nibble per symbol, low
// nibble first), rejecting length tables that no prefix code can have,
// and returns how many symbols have long codes.
func (d *huffDecoder) init(nibbles []byte, alpha int) (nLong int, err error) {
	for _, b := range nibbles {
		d.count[b&0xF]++
		d.count[b>>4]++
	}
	if alpha%2 == 1 {
		d.count[nibbles[len(nibbles)-1]>>4]-- // padding nibble past the last symbol
	}
	d.count[0] = 0 // absent symbols get no code
	kraft := uint32(0)
	for l := 1; l <= huffMaxLen; l++ {
		if d.count[l] > 0 {
			d.maxLen = l
			kraft += d.count[l] << (huffMaxLen - l)
		}
	}
	if d.maxLen == 0 {
		return 0, fmt.Errorf("zdb: huffman length table has no symbols")
	}
	if kraft > 1<<huffMaxLen {
		// The canonical codes would overflow their lengths and the table
		// fill would run past the table.
		return 0, fmt.Errorf("zdb: huffman length table is over-subscribed")
	}
	d.tbits = d.maxLen
	for 1<<d.tbits > len(d.table) {
		d.tbits--
	}

	code := uint32(0)
	for l := 1; l <= d.maxLen; l++ {
		code = (code + d.count[l-1]) << 1
		d.firstCode[l] = code
		if l > d.tbits {
			d.firstRank[l] = uint32(nLong)
			nLong += int(d.count[l])
		}
	}
	return nLong, nil
}

// fill builds the primary table and the long-code symbol list.
func (d *huffDecoder) fill(nibbles []byte, alpha int) {
	next, longAt := d.firstCode, d.firstRank
	for s := 0; s < alpha; s++ {
		l := int(nibbles[s/2] >> (4 * (s & 1)) & 0xF)
		switch {
		case l == 0:
		case l > d.tbits:
			d.syms[longAt[l]] = uint16(s)
			longAt[l]++
		default:
			lo := next[l] << (d.tbits - l)
			next[l]++
			fill := d.table[lo : lo+1<<(d.tbits-l)]
			for k := range fill {
				fill[k] = uint32(s)<<4 | uint32(l)
			}
		}
	}
}

// decode fills out from the MSB-first bitstream body, starting at bit
// offset bit, and returns the bit offset just past the last value. The
// stream's next bits sit MSB-aligned in a 64-bit reservoir that is topped
// up a word at a time; the bits below the nb valid ones are either zero or
// already the stream's true next bits, so refills may simply OR over them.
// A start inside a byte preloads that byte less the bits before it.
func (d *huffDecoder) decode(body []byte, bit uint, out []game.Value) (uint, error) {
	var acc uint64
	nb, pos := uint(0), int(bit>>3)
	if skip := bit & 7; skip != 0 {
		if pos >= len(body) {
			return 0, fmt.Errorf("zdb: huffman bitstream exhausted at value 0")
		}
		acc, nb = uint64(body[pos])<<(56+skip), 8-skip
		pos++
	}
	table, shift := d.table, uint(64-d.tbits)
	for i := range out {
		if nb < huffMaxLen {
			if pos+8 <= len(body) {
				acc |= binary.BigEndian.Uint64(body[pos:]) >> (nb & 63)
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				for nb <= 56 && pos < len(body) {
					acc |= uint64(body[pos]) << ((56 - nb) & 63)
					pos++
					nb += 8
				}
			}
		}
		e := table[acc>>(shift&63)]
		if e&0xF == 0 {
			var err error
			if e, err = d.longCode(acc, nb, i); err != nil {
				return 0, err
			}
		}
		l := uint(e & 0xF)
		if l > nb {
			return 0, fmt.Errorf("zdb: huffman bitstream exhausted at value %d", i)
		}
		out[i] = game.Value(e >> 4)
		acc <<= l
		nb -= l
	}
	return uint(pos)*8 - nb, nil
}

// longCode resolves the code at the head of acc when the primary table
// could not: a code longer than the table, or no code at all. It returns
// a table-style entry; i is the value index, for the error.
func (d *huffDecoder) longCode(acc uint64, nb uint, i int) (uint32, error) {
	for l := d.tbits + 1; l <= d.maxLen; l++ {
		if rank := uint32(acc>>(64-uint(l))) - d.firstCode[l]; rank < d.count[l] {
			return uint32(d.syms[d.firstRank[l]+rank])<<4 | uint32(l), nil
		}
	}
	if nb < uint(d.maxLen) {
		return 0, fmt.Errorf("zdb: huffman bitstream exhausted at value %d", i)
	}
	return 0, fmt.Errorf("zdb: huffman code at value %d matches no symbol", i)
}

// decodeHuff decodes n values from src into out[:n]. It allocates only
// for alphabets with more than huffStackSyms codes longer than the
// primary table.
func decodeHuff(src []byte, n int, bits int, out []game.Value) error {
	var d huffDecoder
	var table [1 << huffTableBits]uint32
	var syms [huffStackSyms]uint16
	d.table, d.syms = table[:], syms[:]
	body, err := d.build(src, bits)
	if err != nil {
		return err
	}
	_, err = d.decode(body, 0, out[:n])
	return err
}

// huffMarks decodes a Huffman block of n values one seek interval at a
// time and appends the bit offset into its bitstream at which each
// interval starts: the block's seek marks.
func huffMarks(marks []uint32, src []byte, n, bits int) ([]uint32, error) {
	var d huffDecoder
	var table [1 << huffTableBits]uint32
	var syms [huffStackSyms]uint16
	d.table, d.syms = table[:], syms[:]
	body, err := d.build(src, bits)
	if err != nil {
		return marks, err
	}
	if uint64(len(body))*8 > math.MaxUint32 {
		return marks, fmt.Errorf("zdb: huffman bitstream of %d bytes too long to index", len(body))
	}
	var vals [markEvery]game.Value
	bit := uint(0)
	for first := 0; first < n; first += markEvery {
		marks = append(marks, uint32(bit))
		if bit, err = d.decode(body, bit, vals[:min(markEvery, n-first)]); err != nil {
			return marks, fmt.Errorf("zdb: values from %d: %w", first, err)
		}
	}
	return marks, nil
}

// huffAt returns value i of a Huffman block whose seek marks are marks,
// decoding from the mark at or before it: at most markEvery codes, through
// a primary table of 2^huffPointBits entries. It allocates nothing for
// the alphabets decodeHuff decodes without allocating.
func huffAt(src []byte, bits int, marks []uint32, i int) (game.Value, error) {
	k := i / markEvery
	if k >= len(marks) {
		return 0, fmt.Errorf("zdb: value %d has no seek mark", i)
	}
	var d huffDecoder
	var table [1 << huffPointBits]uint32
	var syms [huffStackSyms]uint16
	d.table, d.syms = table[:], syms[:]
	body, err := d.build(src, bits)
	if err != nil {
		return 0, err
	}
	var vals [markEvery]game.Value
	out := vals[:i%markEvery+1]
	if _, err := d.decode(body, uint(marks[k]), out); err != nil {
		return 0, err
	}
	return out[len(out)-1], nil
}
