package db

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"retrograde/internal/game"
)

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("x", 10, 0); err == nil {
		t.Error("NewTable with 0 bits succeeded")
	}
	if _, err := NewTable("x", 10, MaxValueBits+1); err == nil {
		t.Error("NewTable with 17 bits succeeded")
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 3, 4, 6, 7, 13, 16} {
		tb, err := NewTable("t", 1000, bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		want := make([]game.Value, 1000)
		for i := range want {
			want[i] = game.Value(rng.Intn(1 << bits))
			tb.Set(uint64(i), want[i])
		}
		for i, w := range want {
			if got := tb.Get(uint64(i)); got != w {
				t.Fatalf("bits=%d: Get(%d) = %d, want %d", bits, i, got, w)
			}
		}
		// Overwrite in reverse order and re-check: Set must not clobber
		// neighbours.
		for i := 999; i >= 0; i-- {
			want[i] = game.Value((int(want[i]) + 1) % (1 << bits))
			tb.Set(uint64(i), want[i])
		}
		for i, w := range want {
			if got := tb.Get(uint64(i)); got != w {
				t.Fatalf("bits=%d after overwrite: Get(%d) = %d, want %d", bits, i, got, w)
			}
		}
	}
}

func TestBoundsAndFitPanics(t *testing.T) {
	tb, _ := NewTable("t", 8, 4)
	for _, f := range []func(){
		func() { tb.Get(8) },
		func() { tb.Set(8, 0) },
		func() { tb.Set(0, 16) }, // 16 needs 5 bits
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPackedBytes(t *testing.T) {
	cases := []struct {
		size uint64
		bits int
		want uint64
	}{
		{0, 4, 0},
		{16, 4, 8},            // exactly one word
		{17, 4, 16},           // spills into a second word
		{2496144, 4, 1248072}, // the paper's 13-stone database at 4 bits
	}
	for _, c := range cases {
		if got := PackedBytes(c.size, c.bits); got != c.want {
			t.Errorf("PackedBytes(%d, %d) = %d, want %d", c.size, c.bits, got, c.want)
		}
	}
	tb, _ := NewTable("t", 17, 4)
	if tb.Bytes() != 16 {
		t.Errorf("Bytes() = %d, want 16", tb.Bytes())
	}
}

func TestPackRejectsBadValues(t *testing.T) {
	if _, err := Pack("t", 4, []game.Value{1, game.NoValue}); err == nil {
		t.Error("Pack accepted NoValue")
	}
	if _, err := Pack("t", 2, []game.Value{5}); err == nil {
		t.Error("Pack accepted an oversized value")
	}
}

func TestPackUnpack(t *testing.T) {
	values := []game.Value{0, 1, 2, 3, 7, 6, 5, 4, 0, 7}
	tb, err := Pack("pu", 3, values)
	if err != nil {
		t.Fatal(err)
	}
	got := tb.Unpack()
	if len(got) != len(values) {
		t.Fatalf("Unpack length %d", len(got))
	}
	for i := range values {
		if got[i] != values[i] {
			t.Fatalf("Unpack[%d] = %d, want %d", i, got[i], values[i])
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]game.Value, 3000)
	for i := range values {
		values[i] = game.Value(rng.Intn(16))
	}
	tb, err := Pack("awari-13", 4, values)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "awari-13" || back.Size() != 3000 || back.Bits() != 4 {
		t.Fatalf("metadata: %q %d %d", back.Name(), back.Size(), back.Bits())
	}
	for i := range values {
		if back.Get(uint64(i)) != values[i] {
			t.Fatalf("entry %d corrupted", i)
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	tb, _ := Pack("c", 4, []game.Value{1, 2, 3, 4, 5})
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit in the payload region (past the header).
	data[30] ^= 0x10
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("Read accepted corrupted data")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("RADB\x02\x00\x00\x00\x04\x00\x00\x00\x01\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00x"), // bad version
	}
	for i, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: Read accepted garbage", i)
		}
	}
}

// TestReadFamilyRejectsGarbage checks Read and Load refuse a retired
// .rafy family by name, and a cut family header as garbage.
func TestReadFamilyRejectsGarbage(t *testing.T) {
	fam := familyFile(t)
	if _, err := Read(bytes.NewReader(fam)); !errors.Is(err, ErrFamilyRetired) {
		t.Errorf("Read of a family: %v, want ErrFamilyRetired", err)
	}
	path := filepath.Join(t.TempDir(), "awari.rafy")
	if err := os.WriteFile(path, fam, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrFamilyRetired) {
		t.Errorf("Load of a family: %v, want ErrFamilyRetired", err)
	}
	if _, err := Read(bytes.NewReader(fam[:3])); err == nil || errors.Is(err, ErrFamilyRetired) {
		t.Errorf("Read of a cut family header: %v, want a header error", err)
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.radb")
	values := []game.Value{3, 1, 4, 1, 5, 9, 2, 6}
	tb, err := Pack("saveload", 4, values)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if back.Get(uint64(i)) != values[i] {
			t.Fatalf("entry %d corrupted after save/load", i)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.radb")); err == nil {
		t.Error("Load of missing file succeeded")
	}
}

// TestQuickPackedRoundTrip is a property test over random widths/sizes.
func TestQuickPackedRoundTrip(t *testing.T) {
	f := func(bitsRaw uint8, raw []uint16) bool {
		bits := int(bitsRaw%MaxValueBits) + 1
		values := make([]game.Value, len(raw))
		for i, r := range raw {
			values[i] = game.Value(uint64(r) & (1<<bits - 1))
		}
		tb, err := Pack("q", bits, values)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := tb.WriteTo(&buf); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		for i := range values {
			if back.Get(uint64(i)) != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
