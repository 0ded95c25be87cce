// Package db stores finished endgame databases: bit-packed value tables
// with a checksummed file format.
//
// Packing matters to the paper's memory argument: an awari value needs
// only ceil(log2(n+1)) bits (4 bits up to 15 stones, 6 bits up to 48), and
// whether a database fits in memory — 600 MByte did not, in 1995 — is
// determined by bits-per-position times the binomial position count.
package db

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"

	"retrograde/internal/game"
)

// Table is a bit-packed array of game values.
type Table struct {
	name  string
	size  uint64
	bits  int
	words []uint64
}

// MaxValueBits is the widest supported entry.
const MaxValueBits = 16

// NewTable returns a zeroed table of size entries of bits bits each.
func NewTable(name string, size uint64, bits int) (*Table, error) {
	if err := checkShape(size, bits); err != nil {
		return nil, err
	}
	return &Table{name: name, size: size, bits: bits, words: make([]uint64, PackedBytes(size, bits)/8)}, nil
}

// checkShape rejects an entry width out of range and an entry count whose
// packed length overflows, so PackedBytes is exact for every shape that
// passes.
func checkShape(size uint64, bits int) error {
	if bits < 1 || bits > MaxValueBits {
		return fmt.Errorf("db: value bits %d out of range [1, %d]", bits, MaxValueBits)
	}
	if size > (math.MaxUint64-63)/uint64(bits) {
		return fmt.Errorf("db: %d entries of %d bits overflow a packed table", size, bits)
	}
	return nil
}

// Name returns the table's identifier (usually the game name).
func (t *Table) Name() string { return t.name }

// Size returns the number of entries.
func (t *Table) Size() uint64 { return t.size }

// Bits returns the entry width in bits.
func (t *Table) Bits() int { return t.bits }

// Bytes returns the packed storage size in bytes.
func (t *Table) Bytes() uint64 { return uint64(len(t.words)) * 8 }

// PackedBytes returns the storage a table of the given shape needs,
// without allocating it — the paper's memory-requirement arithmetic.
func PackedBytes(size uint64, bits int) uint64 {
	return (size*uint64(bits) + 63) / 64 * 8
}

// Get returns entry idx.
func (t *Table) Get(idx uint64) game.Value {
	if idx >= t.size {
		panic(fmt.Sprintf("db: index %d out of range [0, %d)", idx, t.size))
	}
	bitPos := idx * uint64(t.bits)
	word, off := bitPos/64, bitPos%64
	v := t.words[word] >> off
	if off+uint64(t.bits) > 64 {
		v |= t.words[word+1] << (64 - off)
	}
	return game.Value(v & (1<<t.bits - 1))
}

// Set stores v at entry idx. It panics if v does not fit in the entry
// width — that is a programming error, not an input error.
func (t *Table) Set(idx uint64, v game.Value) {
	if idx >= t.size {
		panic(fmt.Sprintf("db: index %d out of range [0, %d)", idx, t.size))
	}
	if uint64(v) >= 1<<t.bits {
		panic(fmt.Sprintf("db: value %d does not fit in %d bits", v, t.bits))
	}
	bitPos := idx * uint64(t.bits)
	word, off := bitPos/64, bitPos%64
	mask := uint64(1<<t.bits - 1)
	t.words[word] = t.words[word]&^(mask<<off) | uint64(v)<<off
	if off+uint64(t.bits) > 64 {
		hi := uint64(t.bits) - (64 - off)
		himask := uint64(1)<<hi - 1
		t.words[word+1] = t.words[word+1]&^himask | uint64(v)>>(64-off)
	}
}

// Pack fills the table from a full value slice.
func Pack(name string, bits int, values []game.Value) (*Table, error) {
	t, err := NewTable(name, uint64(len(values)), bits)
	if err != nil {
		return nil, err
	}
	for i, v := range values {
		if v == game.NoValue {
			return nil, fmt.Errorf("db: value at %d is NoValue", i)
		}
		if uint64(v) >= 1<<bits {
			return nil, fmt.Errorf("db: value %d at %d does not fit in %d bits", v, i, bits)
		}
		t.Set(uint64(i), v)
	}
	return t, nil
}

// Unpack expands the table into a full value slice.
func (t *Table) Unpack() []game.Value {
	out := make([]game.Value, t.size)
	for i := uint64(0); i < t.size; i++ {
		out[i] = t.Get(i)
	}
	return out
}

// File format (version 1, flat packed):
//
//	magic   "RADB"          4 bytes
//	version uint32          little endian
//	bits    uint32
//	nameLen uint32
//	size    uint64
//	name    nameLen bytes
//	words   size*bits padded to words, little endian uint64s
//	crc     uint64          CRC-64/ECMA of everything above
//
// Version 2 shares the magic and the leading header fields but stores
// the values block-compressed; it is read and written by internal/zdb.
// Stat describes both versions.
const (
	// Magic is the four-byte file signature shared by every version.
	Magic = "RADB"
	// Version1 is the flat bit-packed table this package reads and writes.
	Version1 = 1
	// Version2 is the block-compressed format (internal/zdb).
	Version2 = 2
	// V2DirEntrySize is the on-disk size of one version-2 block-directory
	// entry: offset u64, encoded length u32, crc32 u32, codec u8, codec
	// parameter u8, reserved u16.
	V2DirEntrySize = 20

	fileMagic   = Magic
	fileVersion = Version1
	// familyMagic signs the retired .rafy family format.
	familyMagic = "RAFY"
)

// ErrFamilyRetired refuses the retired .rafy family format, which packed
// every rung of a ladder into one flat table that could not be
// compressed. The per-rung files hold the same values.
var ErrFamilyRetired = errors.New("the .rafy family format is retired; per-rung awari-<n>.radb files (rabuild -out) serve the same queries")

// checkMagic accepts the RADB signature and names the retired family's.
func checkMagic(sig []byte) error {
	switch string(sig) {
	case fileMagic:
		return nil
	case familyMagic:
		return fmt.Errorf("db: %w", ErrFamilyRetired)
	}
	return fmt.Errorf("db: bad magic %q", sig)
}

// CRC64Table is the checksum polynomial every on-disk format shares.
var CRC64Table = crc64.MakeTable(crc64.ECMA)

var crcTable = CRC64Table

// WriteTo serialises the table. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	cw := &countingCRCWriter{w: w}
	hdr := make([]byte, 0, 24+len(t.name))
	hdr = append(hdr, fileMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, fileVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(t.bits))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(t.name)))
	hdr = binary.LittleEndian.AppendUint64(hdr, t.size)
	hdr = append(hdr, t.name...)
	if _, err := cw.Write(hdr); err != nil {
		return cw.n, err
	}
	buf := make([]byte, 8)
	for _, w64 := range t.words {
		binary.LittleEndian.PutUint64(buf, w64)
		if _, err := cw.Write(buf); err != nil {
			return cw.n, err
		}
	}
	binary.LittleEndian.PutUint64(buf, cw.crc)
	n, err := cw.w.Write(buf)
	return cw.n + int64(n), err
}

// Read deserialises a table written by WriteTo.
func Read(r io.Reader) (*Table, error) { return read(r, -1) }

// readChunk is how many value words read takes from the stream at a
// time. A header claiming more entries than the stream holds then fails
// at the stream's end, not in one allocation of the claimed size.
const readChunk = 1 << 13

// read parses a v1 stream of avail bytes (-1 when unknown). A known
// length is checked against the header before the words are allocated,
// which are then allocated once.
func read(r io.Reader, avail int64) (*Table, error) {
	cr := &countingCRCReader{r: r}
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, fmt.Errorf("db: reading header: %w", err)
	}
	if err := checkMagic(hdr[:4]); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != fileVersion {
		if v == Version2 {
			return nil, fmt.Errorf("db: version 2 is block-compressed; read it with internal/zdb")
		}
		return nil, fmt.Errorf("db: unsupported version %d", v)
	}
	bits := int(binary.LittleEndian.Uint32(hdr[8:]))
	nameLen := binary.LittleEndian.Uint32(hdr[12:])
	if nameLen > 4096 {
		return nil, fmt.Errorf("db: implausible name length %d", nameLen)
	}
	size := binary.LittleEndian.Uint64(hdr[16:])
	if err := checkShape(size, bits); err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(cr, name); err != nil {
		return nil, fmt.Errorf("db: reading name: %w", err)
	}
	nWords := PackedBytes(size, bits) / 8
	prealloc := min(nWords, readChunk)
	if avail >= 0 {
		if need := 24 + uint64(nameLen) + 8*nWords + 8; need > uint64(avail) {
			return nil, fmt.Errorf("db: header claims %d entries of %d bits (%d bytes), file holds %d", size, bits, need, avail)
		}
		prealloc = nWords
	}
	t := &Table{name: string(name), size: size, bits: bits, words: make([]uint64, 0, prealloc)}
	buf := make([]byte, 8*min(nWords, readChunk)+8)
	for rest := nWords; rest > 0; {
		k := min(rest, readChunk)
		if _, err := io.ReadFull(cr, buf[:8*k]); err != nil {
			return nil, fmt.Errorf("db: reading words: %w", err)
		}
		for i := uint64(0); i < k; i++ {
			t.words = append(t.words, binary.LittleEndian.Uint64(buf[8*i:]))
		}
		rest -= k
	}
	wantCRC := cr.crc
	if _, err := io.ReadFull(cr.r, buf[:8]); err != nil {
		return nil, fmt.Errorf("db: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(buf); got != wantCRC {
		return nil, fmt.Errorf("db: checksum mismatch: file %x, computed %x", got, wantCRC)
	}
	return t, nil
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

// Load reads a table from a file.
func Load(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return read(bufio.NewReader(f), fi.Size())
}

type countingCRCWriter struct {
	w   io.Writer
	crc uint64
	n   int64
}

func (c *countingCRCWriter) Write(p []byte) (int, error) {
	c.crc = crc64.Update(c.crc, crcTable, p)
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingCRCReader struct {
	r   io.Reader
	crc uint64
}

func (c *countingCRCReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc64.Update(c.crc, crcTable, p[:n])
	return n, err
}
