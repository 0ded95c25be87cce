package db

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

	"retrograde/internal/game"
)

// v1File returns a v1 file of the given header fields and payload words,
// with a valid checksum, whatever the header claims.
func v1File(bits uint32, size uint64, name string, words []uint64) []byte {
	b := []byte(Magic)
	b = binary.LittleEndian.AppendUint32(b, Version1)
	b = binary.LittleEndian.AppendUint32(b, bits)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
	b = binary.LittleEndian.AppendUint64(b, size)
	b = append(b, name...)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, CRC64Table))
}

// overflowFile claims 2^60 16-bit entries in 32 bytes: size*bits wraps
// to zero, so a reader that trusts the product allocates no words and
// the first Get indexes past them.
var overflowFile = v1File(16, 1<<60, "", nil)

// FuzzTableRead feeds arbitrary bytes to Read: it must never panic, and
// every table it accepts answers Get at its first and last entries and
// writes back the exact bytes it was read from.
func FuzzTableRead(f *testing.F) {
	f.Add(overflowFile)
	f.Add(v1File(4, 20, "awari-1", []uint64{0x0123456789abcdef, 0xfedcba98}))
	f.Add(v1File(16, 1<<20, "short", []uint64{1, 2, 3}))
	f.Add([]byte("RADB"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := uint64(0); i < tab.Size() && i < 1<<12; i++ {
			tab.Get(i)
		}
		if tab.Size() > 0 {
			tab.Get(tab.Size() - 1)
		}
		var out bytes.Buffer
		if _, err := tab.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted %d bytes, wrote back %d different ones", len(data), out.Len())
		}
	})
}

// TestHeaderOverflowRejected checks every header reader refuses a size
// whose packed length overflows, and Load refuses a header claiming more
// entries than the file holds before allocating them.
func TestHeaderOverflowRejected(t *testing.T) {
	dir := t.TempDir()
	over := filepath.Join(dir, "over.radb")
	if err := os.WriteFile(over, overflowFile, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(overflowFile)); err == nil {
		t.Error("Read accepted an overflowing size")
	}
	if _, err := Stat(over); err == nil {
		t.Error("Stat accepted an overflowing size")
	}
	if _, err := NewTable("x", 1<<60, 16); err == nil {
		t.Error("NewTable accepted an overflowing size")
	}
	short := filepath.Join(dir, "short.radb")
	if err := os.WriteFile(short, v1File(16, 1<<40, "short", []uint64{1}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(short); err == nil {
		t.Error("Load accepted a header claiming 2^40 entries in a 53-byte file")
	}
	// A table longer than one read chunk still loads exactly.
	values := make([]game.Value, 5*readChunk+3)
	for i := range values {
		values[i] = game.Value(i % 7)
	}
	tab, err := Pack("long", 3, values)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if back.Get(uint64(i)) != v {
			t.Fatalf("entry %d is %d, want %d", i, back.Get(uint64(i)), v)
		}
	}
}
