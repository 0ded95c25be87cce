// Package zdb implements the block-compressed endgame-database format
// (on-disk format version 2 of the "RADB" family).
//
// The paper's memory argument — the larger awari database "would have
// required over 600 MByte of internal memory on a uniprocessor" — is
// exactly the pressure compression relieves: endgame values concentrate
// far below their packed bit width, so a v1 table split into fixed-size
// blocks, each stored with the smallest of four codecs (raw packed,
// narrowed bit-width, run-length, canonical Huffman), holds the same
// values in a fraction of the bytes. A block directory (offset, codec,
// CRC per block) makes
// the format randomly accessible, and a seek index built at load (the bit
// offset of every 128th entry of each Huffman block) lets Get decode only
// the entry asked for, so a server can keep shards compressed in core and
// still answer point lookups without ever materialising a block.
//
// Open is the one reader for both on-disk formats: it returns a flat
// *db.Table for a version-1 file and a *Table for a version-2 one,
// behind the Reader interface.
package zdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"os"
	"slices"
	"sync/atomic"

	"retrograde/internal/db"
	"retrograde/internal/game"
)

// DefaultBlockLen is the writer's default entries-per-block. 4K entries
// keeps a whole-block decode (Unpack, Verify) at 8 KiB of values and is
// large enough that run-length coding sees real runs; a point lookup
// decodes at most 128 codes of a block whatever its length.
const DefaultBlockLen = 4096

// block is one directory entry.
type block struct {
	off    uint64 // byte offset within the data section
	encLen uint32 // encoded byte length
	crc    uint32 // CRC-32 (IEEE) of the encoded bytes
	codec  uint8
	param  uint8
	mark   uint32 // where the block's seek marks start in Table.marks
}

// Table is a block-compressed value table held compressed in memory.
// The compressed payload and its seek index are immutable once built, so
// Get is safe for concurrent callers without a lock.
type Table struct {
	name     string
	size     uint64
	bits     int
	blockLen int
	dir      []block
	data     []byte
	// marks is the seek index: for each Huffman block, the bit offset into
	// its bitstream of entries 0, markEvery, 2*markEvery, ...
	marks   []uint32
	lookups atomic.Uint64
}

// Compress builds a block-compressed copy of t using blockLen entries
// per block (0 means DefaultBlockLen).
func Compress(t *db.Table, blockLen int) (*Table, error) {
	if blockLen == 0 {
		blockLen = DefaultBlockLen
	}
	if blockLen < 1 {
		return nil, fmt.Errorf("zdb: block length %d must be positive", blockLen)
	}
	z := &Table{
		name:     t.Name(),
		size:     t.Size(),
		bits:     t.Bits(),
		blockLen: blockLen,
	}
	nBlocks := int((t.Size() + uint64(blockLen) - 1) / uint64(blockLen))
	z.dir = make([]block, 0, nBlocks)
	scratch := make([]game.Value, blockLen)
	for b := 0; b < nBlocks; b++ {
		start := uint64(b) * uint64(blockLen)
		n := uint64(blockLen)
		if start+n > t.Size() {
			n = t.Size() - start
		}
		vals := scratch[:n]
		for i := range vals {
			vals[i] = t.Get(start + uint64(i))
		}
		off := uint64(len(z.data))
		var codec, param uint8
		var err error
		if z.data, codec, param, err = encodeBlock(z.data, vals, z.bits); err != nil {
			return nil, fmt.Errorf("zdb: compressing block %d of %s: %w", b, t.Name(), err)
		}
		enc := z.data[off:]
		z.dir = append(z.dir, block{
			off:    off,
			encLen: uint32(len(enc)),
			crc:    crc32.ChecksumIEEE(enc),
			codec:  codec,
			param:  param,
		})
	}
	if err := z.index(); err != nil {
		return nil, err
	}
	return z, nil
}

// Name returns the table's identifier.
func (t *Table) Name() string { return t.name }

// Size returns the number of entries.
func (t *Table) Size() uint64 { return t.size }

// Bits returns the entry width in bits.
func (t *Table) Bits() int { return t.bits }

// BlockLen returns the entries per block.
func (t *Table) BlockLen() int { return t.blockLen }

// Blocks returns the number of blocks.
func (t *Table) Blocks() int { return len(t.dir) }

// Bytes returns the in-core compressed footprint: block data plus the
// directory. This is what a server holding the shard compressed pays,
// and matches db.Stat's Compressed for the file.
func (t *Table) Bytes() uint64 {
	return uint64(len(t.data)) + uint64(len(t.dir))*db.V2DirEntrySize
}

// RawBytes returns what the same table costs flat packed (format v1).
func (t *Table) RawBytes() uint64 { return db.PackedBytes(t.size, t.bits) }

// Ratio returns the compression ratio RawBytes/Bytes (0 when empty).
func (t *Table) Ratio() float64 {
	if t.Bytes() == 0 {
		return 0
	}
	return float64(t.RawBytes()) / float64(t.Bytes())
}

// CodecCounts returns how many blocks each codec won.
func (t *Table) CodecCounts() (raw, narrow, rle, huff int) {
	for _, b := range t.dir {
		switch b.codec {
		case codecRaw:
			raw++
		case codecNarrow:
			narrow++
		case codecRLE:
			rle++
		case codecHuff:
			huff++
		}
	}
	return
}

// Unpack streaming-decodes the whole table into a fresh value slice —
// the full-table inflate an engine wants.
func (t *Table) Unpack() ([]game.Value, error) {
	out := make([]game.Value, t.size)
	for b := range t.dir {
		start := uint64(b) * uint64(t.blockLen)
		n := t.blockEntries(b)
		enc := t.encoded(b)
		if err := decodeBlock(enc, n, t.bits, t.dir[b].codec, t.dir[b].param, out[start:start+uint64(n)]); err != nil {
			return nil, fmt.Errorf("zdb: block %d: %w", b, err)
		}
	}
	return out, nil
}

// Inflate decodes the whole table into a flat v1 db.Table.
func (t *Table) Inflate() (*db.Table, error) {
	vals, err := t.Unpack()
	if err != nil {
		return nil, err
	}
	return db.Pack(t.name, t.bits, vals)
}

// Verify checks every block's CRC and decodability, naming the first
// corrupt block.
func (t *Table) Verify() error {
	scratch := make([]game.Value, min(uint64(t.blockLen), t.size))
	for b := range t.dir {
		enc := t.encoded(b)
		if got := crc32.ChecksumIEEE(enc); got != t.dir[b].crc {
			return fmt.Errorf("zdb: block %d (%s, entries %d..%d): crc %08x, want %08x",
				b, codecName(t.dir[b].codec), uint64(b)*uint64(t.blockLen),
				uint64(b)*uint64(t.blockLen)+uint64(t.blockEntries(b))-1, got, t.dir[b].crc)
		}
		if err := decodeBlock(enc, t.blockEntries(b), t.bits, t.dir[b].codec, t.dir[b].param, scratch); err != nil {
			return fmt.Errorf("zdb: block %d: %w", b, err)
		}
	}
	return nil
}

// blockEntries returns how many entries block b holds (the last block
// may be short).
func (t *Table) blockEntries(b int) int {
	if b == len(t.dir)-1 {
		if rem := t.size - uint64(b)*uint64(t.blockLen); rem < uint64(t.blockLen) {
			return int(rem)
		}
	}
	return t.blockLen
}

// encoded returns block b's encoded bytes.
func (t *Table) encoded(b int) []byte {
	d := t.dir[b]
	return t.data[d.off : d.off+uint64(d.encLen)]
}

// File format (version 2):
//
//	magic    "RADB"          4 bytes
//	version  uint32          little endian, = 2
//	bits     uint32
//	nameLen  uint32
//	size     uint64          entries
//	name     nameLen bytes
//	blockLen uint32          entries per block (last may be short)
//	nBlocks  uint32          = ceil(size/blockLen)
//	dataLen  uint64          bytes in the data section
//	dir      nBlocks × 20 B  offset u64, encLen u32, crc32 u32, codec u8, param u8, reserved u16
//	data     dataLen bytes   concatenated encoded blocks
//	crc      uint64          CRC-64/ECMA of everything above

// WriteTo serialises the table. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var n int64
	crc := uint64(0)
	emit := func(p []byte) error {
		crc = crc64.Update(crc, db.CRC64Table, p)
		wn, err := w.Write(p)
		n += int64(wn)
		return err
	}
	hdr := make([]byte, 0, 40+len(t.name))
	hdr = append(hdr, db.Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, db.Version2)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(t.bits))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(t.name)))
	hdr = binary.LittleEndian.AppendUint64(hdr, t.size)
	hdr = append(hdr, t.name...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(t.blockLen))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(t.dir)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(t.data)))
	if err := emit(hdr); err != nil {
		return n, err
	}
	ent := make([]byte, db.V2DirEntrySize)
	for _, b := range t.dir {
		binary.LittleEndian.PutUint64(ent, b.off)
		binary.LittleEndian.PutUint32(ent[8:], b.encLen)
		binary.LittleEndian.PutUint32(ent[12:], b.crc)
		ent[16], ent[17] = b.codec, b.param
		ent[18], ent[19] = 0, 0
		if err := emit(ent); err != nil {
			return n, err
		}
	}
	if err := emit(t.data); err != nil {
		return n, err
	}
	tail := binary.LittleEndian.AppendUint64(nil, crc)
	wn, err := w.Write(tail)
	return n + int64(wn), err
}

// Save writes the table to a file.
func (t *Table) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := t.WriteTo(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read deserialises a table written by WriteTo, verifying the file
// checksum and that every block decodes (an error names the first that
// does not), and builds the seek index.
func Read(r io.Reader) (*Table, error) { return strict(read(r, -1)) }

// strict refuses a table whose checksum mismatched.
func strict(t *Table, crcErr, err error) (*Table, error) {
	if err == nil {
		err = crcErr
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// readChunk bounds what read allocates ahead of what a stream of unknown
// length has supplied: readChunk bytes of block data, and directory
// entries for readChunk bytes of directory. A header claiming more than
// the stream holds then fails at the stream's end, not in an allocation
// of the claimed size.
const readChunk = 1 << 16

// read parses a v2 stream of avail bytes (-1 when unknown; a known
// length is checked against the header's claims before allocating for
// them). Structural errors come back in err; a parseable file whose
// checksum mismatches comes back with crcErr set and no seek index, so a
// verifier can still walk the block directory and name the corrupt block
// by its CRC.
func read(r io.Reader, avail int64) (t *Table, crcErr, err error) {
	cr := &crcReader{r: r}
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, nil, fmt.Errorf("zdb: reading header: %w", err)
	}
	if string(hdr[:4]) != db.Magic {
		return nil, nil, fmt.Errorf("zdb: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != db.Version2 {
		if v == db.Version1 {
			return nil, nil, fmt.Errorf("zdb: version 1 is flat packed; read it with package db")
		}
		return nil, nil, fmt.Errorf("zdb: unsupported version %d", v)
	}
	bits := int(binary.LittleEndian.Uint32(hdr[8:]))
	if bits < 1 || bits > db.MaxValueBits {
		return nil, nil, fmt.Errorf("zdb: value bits %d out of range [1, %d]", bits, db.MaxValueBits)
	}
	nameLen := binary.LittleEndian.Uint32(hdr[12:])
	if nameLen > 4096 {
		return nil, nil, fmt.Errorf("zdb: implausible name length %d", nameLen)
	}
	size := binary.LittleEndian.Uint64(hdr[16:])
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(cr, name); err != nil {
		return nil, nil, fmt.Errorf("zdb: reading name: %w", err)
	}
	ext := make([]byte, 16)
	if _, err := io.ReadFull(cr, ext); err != nil {
		return nil, nil, fmt.Errorf("zdb: reading v2 header: %w", err)
	}
	blockLen := int(binary.LittleEndian.Uint32(ext))
	nBlocks := binary.LittleEndian.Uint32(ext[4:])
	dataLen := binary.LittleEndian.Uint64(ext[8:])
	if blockLen < 1 {
		return nil, nil, fmt.Errorf("zdb: block length %d must be positive", blockLen)
	}
	blocks := size / uint64(blockLen) // ceil without overflowing
	if size%uint64(blockLen) != 0 {
		blocks++
	}
	if uint64(nBlocks) != blocks {
		return nil, nil, fmt.Errorf("zdb: %d blocks for %d entries of %d, want %d", nBlocks, size, blockLen, blocks)
	}
	// Bytes the file needs beyond the block data: header, directory, crc.
	frame := 24 + uint64(nameLen) + 16 + uint64(nBlocks)*db.V2DirEntrySize + 8
	dirCap, dataCap := min(uint64(nBlocks), readChunk/db.V2DirEntrySize), min(dataLen, readChunk)
	if avail >= 0 {
		if frame > uint64(avail) || dataLen > uint64(avail)-frame {
			return nil, nil, fmt.Errorf("zdb: header claims %d blocks of %d data bytes, file holds %d bytes", nBlocks, dataLen, avail)
		}
		dirCap, dataCap = uint64(nBlocks), dataLen
	}
	t = &Table{name: string(name), size: size, bits: bits, blockLen: blockLen}
	t.dir = make([]block, 0, dirCap)
	ent := make([]byte, db.V2DirEntrySize)
	next := uint64(0)
	for i := 0; i < int(nBlocks); i++ {
		if _, err := io.ReadFull(cr, ent); err != nil {
			return nil, nil, fmt.Errorf("zdb: reading directory entry %d: %w", i, err)
		}
		b := block{
			off:    binary.LittleEndian.Uint64(ent),
			encLen: binary.LittleEndian.Uint32(ent[8:]),
			crc:    binary.LittleEndian.Uint32(ent[12:]),
			codec:  ent[16],
			param:  ent[17],
		}
		if b.codec >= numCodecs {
			return nil, nil, fmt.Errorf("zdb: directory entry %d: unknown codec %d", i, b.codec)
		}
		if b.off != next {
			return nil, nil, fmt.Errorf("zdb: directory entry %d: offset %d, want %d", i, b.off, next)
		}
		next = b.off + uint64(b.encLen)
		if next > dataLen {
			return nil, nil, fmt.Errorf("zdb: directory entry %d overruns data section (%d > %d)", i, next, dataLen)
		}
		t.dir = append(t.dir, b)
	}
	if next != dataLen {
		return nil, nil, fmt.Errorf("zdb: directory covers %d bytes of a %d-byte data section", next, dataLen)
	}
	t.data = make([]byte, 0, dataCap)
	for n := uint64(0); n < dataLen; n = uint64(len(t.data)) {
		k := min(dataLen-n, readChunk)
		t.data = slices.Grow(t.data, int(k))[:n+k]
		if _, err := io.ReadFull(cr, t.data[n:]); err != nil {
			return nil, nil, fmt.Errorf("zdb: reading data: %w", err)
		}
	}
	want := cr.crc
	tail := make([]byte, 8)
	if _, err := io.ReadFull(cr.r, tail); err != nil {
		return nil, nil, fmt.Errorf("zdb: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(tail); got != want {
		return t, fmt.Errorf("zdb: checksum mismatch: file %x, computed %x", got, want), nil
	}
	if err := t.index(); err != nil {
		return nil, nil, err
	}
	return t, nil, nil
}

// Load reads a table from a file.
func Load(path string) (*Table, error) { return strict(readFile(path)) }

// readFile parses the file at path, whose length bounds what its header
// may claim.
func readFile(path string) (t *Table, crcErr, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	return read(bufio.NewReader(f), fi.Size())
}

// Reader is a random-access value table in either on-disk format: a
// flat *db.Table (v1) or a block-compressed *Table (v2).
type Reader interface {
	Name() string
	Size() uint64
	Bits() int
	// Bytes is the in-core footprint: packed words for v1, compressed
	// blocks and directory for v2.
	Bytes() uint64
	Get(idx uint64) game.Value
}

// Open reads the database at path in the format its header names — the
// one reader for every .radb file, so a directory may mix the formats.
func Open(path string) (Reader, error) {
	info, err := db.Stat(path)
	if err != nil {
		return nil, err
	}
	var r Reader
	if info.Version == db.Version2 {
		r, err = Load(path)
	} else {
		r, err = db.Load(path)
	}
	if err != nil {
		return nil, err // not r: a nil table in a non-nil Reader
	}
	return r, nil
}

// VerifyFile loads path leniently and checks every block CRC, so a
// corrupt file is reported with its first corrupt block rather than
// only the whole-file checksum. A fully clean file is returned.
func VerifyFile(path string) (*Table, error) {
	t, crcErr, err := readFile(path)
	if err != nil {
		return nil, err
	}
	if err := t.Verify(); err != nil {
		return nil, err
	}
	if crcErr != nil {
		return nil, fmt.Errorf("zdb: blocks intact but header or trailer corrupt: %w", crcErr)
	}
	return t, nil
}

type crcReader struct {
	r   io.Reader
	crc uint64
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc64.Update(c.crc, db.CRC64Table, p[:n])
	return n, err
}
