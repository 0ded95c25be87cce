package db

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Info describes a stored table without its values — everything a server
// needs to budget memory and plan loads before touching the words.
type Info struct {
	// Name is the table's embedded identifier (usually the game name).
	Name string
	// Entries is the number of values.
	Entries uint64
	// Bits is the entry width.
	Bits int
	// Bytes is the packed in-memory size of the value words — what a
	// fully inflated table occupies, whatever the on-disk version.
	Bytes uint64
	// Version is the on-disk format version: 1 flat packed, 2
	// block-compressed (internal/zdb).
	Version int
	// Compressed is a version-2 file's in-core compressed footprint
	// (block data plus directory); 0 for version-1 files.
	Compressed uint64
}

// ServingBytes returns what a server holding this shard resident pays:
// the compressed footprint for a version-2 file, the packed words
// otherwise.
func (i Info) ServingBytes() uint64 {
	if i.Version == Version2 {
		return i.Compressed
	}
	return i.Bytes
}

// Stat reads a .radb file's header only — no value words are loaded, so
// it is cheap enough to run over a whole database directory. The file's
// checksum is not verified (that happens on Load).
func Stat(path string) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	return readInfo(bufio.NewReader(f))
}

// readInfo parses a table header from r, mirroring Read's validation.
func readInfo(r io.Reader) (Info, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Info{}, fmt.Errorf("db: reading header: %w", err)
	}
	if err := checkMagic(hdr[:4]); err != nil {
		return Info{}, err
	}
	version := int(binary.LittleEndian.Uint32(hdr[4:]))
	if version != Version1 && version != Version2 {
		return Info{}, fmt.Errorf("db: unsupported version %d", version)
	}
	bits := int(binary.LittleEndian.Uint32(hdr[8:]))
	nameLen := binary.LittleEndian.Uint32(hdr[12:])
	if nameLen > 4096 {
		return Info{}, fmt.Errorf("db: implausible name length %d", nameLen)
	}
	size := binary.LittleEndian.Uint64(hdr[16:])
	if err := checkShape(size, bits); err != nil {
		return Info{}, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return Info{}, fmt.Errorf("db: reading name: %w", err)
	}
	info := Info{Name: string(name), Entries: size, Bits: bits, Bytes: PackedBytes(size, bits), Version: version}
	if version == Version2 {
		// Version 2 appends blockLen u32, nBlocks u32, dataLen u64 before
		// the block directory (see internal/zdb).
		ext := make([]byte, 16)
		if _, err := io.ReadFull(r, ext); err != nil {
			return Info{}, fmt.Errorf("db: reading v2 header: %w", err)
		}
		nBlocks := binary.LittleEndian.Uint32(ext[4:])
		dataLen := binary.LittleEndian.Uint64(ext[8:])
		info.Compressed = dataLen + uint64(nBlocks)*V2DirEntrySize
	}
	return info, nil
}
