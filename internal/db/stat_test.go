package db

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"retrograde/internal/game"
)

func TestStat(t *testing.T) {
	dir := t.TempDir()
	values := make([]game.Value, 1000)
	for i := range values {
		values[i] = game.Value(i % 13)
	}
	tab, err := Pack("stat-test", 4, values)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "stat-test.radb")
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	info, err := Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "stat-test" || info.Entries != 1000 || info.Bits != 4 {
		t.Errorf("Stat = %+v, want name stat-test, 1000 entries, 4 bits", info)
	}
	if info.Bytes != tab.Bytes() {
		t.Errorf("Stat bytes = %d, loaded table holds %d", info.Bytes, tab.Bytes())
	}
}

// familyFile returns a file of the retired .rafy family format: a RAFY
// header (version 1, 12 pits, rungs 0..4) around a v1 table.
func familyFile(t *testing.T) []byte {
	t.Helper()
	tab, err := Pack("awari", 3, make([]game.Value, 1820))
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBufferString("RAFY\x01\x00\x00\x00\x0c\x00\x00\x00\x04\x00\x00\x00")
	if _, err := tab.WriteTo(buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStatFamily checks Stat refuses a retired .rafy family by name.
func TestStatFamily(t *testing.T) {
	path := filepath.Join(t.TempDir(), "awari.rafy")
	if err := os.WriteFile(path, familyFile(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Stat(path); !errors.Is(err, ErrFamilyRetired) {
		t.Errorf("Stat of a family file: %v, want ErrFamilyRetired", err)
	}
}

func TestStatMissing(t *testing.T) {
	if _, err := Stat(filepath.Join(t.TempDir(), "nope.radb")); err == nil {
		t.Error("Stat of a missing file succeeded")
	}
}
