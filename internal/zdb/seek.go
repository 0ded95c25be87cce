package zdb

import (
	"encoding/binary"
	"fmt"

	"retrograde/internal/game"
)

// Point lookups. A table holds no decoded blocks: Get decodes only the
// entry asked for. Raw and narrow blocks are read by bit address and RLE
// blocks by walking their runs. A Huffman code has no fixed width, so the
// seek index records where the code of every markEvery-th entry of each
// Huffman block starts, and Get decodes from the nearest mark at or
// before the entry.

// markEvery is the seek index's spacing in entries: a point lookup in a
// Huffman block decodes at most this many codes, and the index costs 4
// bytes per markEvery entries (see DESIGN.md, key design decisions).
const markEvery = 128

// Stats counts what Get did since the table was built or loaded.
type Stats struct {
	// Lookups are Get calls; each decodes one entry.
	Lookups uint64
}

// Stats returns the table's Get counters.
func (t *Table) Stats() Stats {
	return Stats{Lookups: t.lookups.Load()}
}

// Get returns entry idx. It takes no lock and allocates nothing, so any
// number of callers may share a table. Load proved every block decodes,
// so a decode failure here is corruption of the in-core payload or a
// format bug; Get panics naming the block.
func (t *Table) Get(idx uint64) game.Value {
	if idx >= t.size {
		panic(fmt.Sprintf("zdb: index %d out of range [0, %d)", idx, t.size))
	}
	t.lookups.Add(1)
	b := int(idx / uint64(t.blockLen))
	v, err := t.at(b, int(idx%uint64(t.blockLen)))
	if err != nil {
		panic(fmt.Errorf("zdb: block %d: %w", b, err))
	}
	return v
}

// at decodes entry i of block b.
func (t *Table) at(b, i int) (game.Value, error) {
	d := t.dir[b]
	src := t.encoded(b)
	switch d.codec {
	case codecRaw:
		v, ok := bitsAt(src, i, t.bits)
		if !ok {
			return 0, fmt.Errorf("zdb: raw block truncated (%d bytes, entry %d of %d bits)", len(src), i, t.bits)
		}
		return v, nil
	case codecNarrow:
		if len(src) < 2 {
			return 0, fmt.Errorf("zdb: narrow block shorter than its base")
		}
		if int(d.param) > t.bits {
			return 0, fmt.Errorf("zdb: narrow width %d exceeds entry width %d", d.param, t.bits)
		}
		v, ok := bitsAt(src[2:], i, int(d.param))
		if !ok {
			return 0, fmt.Errorf("zdb: narrow block truncated (%d bytes, entry %d of %d bits)", len(src), i, d.param)
		}
		return game.Value(binary.LittleEndian.Uint16(src)) + v, nil
	case codecRLE:
		return rleAt(src, i, t.blockEntries(b), t.bits)
	case codecHuff:
		return huffAt(src, t.bits, t.marks[d.mark:], i)
	}
	return 0, fmt.Errorf("zdb: unknown codec %d", d.codec)
}

// index builds the seek index, and in the same pass proves that every
// block decodes: a Huffman block is decoded in full, a mark at a time,
// and any other block has its last entry read, which checks what a full
// decode checks. Compress and Read call it once the directory is known.
func (t *Table) index() error {
	for b := range t.dir {
		d := &t.dir[b]
		d.mark = uint32(len(t.marks))
		n := t.blockEntries(b)
		var err error
		if d.codec == codecHuff {
			t.marks, err = huffMarks(t.marks, t.encoded(b), n, t.bits)
		} else {
			_, err = t.at(b, n-1)
		}
		if err != nil {
			return fmt.Errorf("zdb: block %d (%s, entries %d..%d): %w", b, codecName(d.codec),
				uint64(b)*uint64(t.blockLen), uint64(b)*uint64(t.blockLen)+uint64(n)-1, err)
		}
	}
	return nil
}
