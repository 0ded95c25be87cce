package db

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"retrograde/internal/game"
)

// TestWriteFileAtomicInterrupted interrupts a write mid-stream and checks
// the prior file survives intact and no .tmp residue is left — the
// crash-mid-write contract of WriteFileAtomic.
func TestWriteFileAtomicInterrupted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	valid := []byte("a complete, valid artifact of some length")
	write := func(out io.Writer) error {
		_, err := out.Write(valid)
		return err
	}
	if err := WriteFileAtomic(path, true, write); err != nil {
		t.Fatal(err)
	}

	// A write that dies mid-stream: some bytes, then the plug is pulled.
	boom := errors.New("simulated crash")
	err := WriteFileAtomic(path, true, func(out io.Writer) error {
		if _, err := out.Write(valid[:len(valid)/2]); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("interrupted write returned %v, want the injected crash", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("interrupted write leaked %s.tmp (stat: %v)", path, err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(valid, after) {
		t.Fatalf("interrupted write clobbered the valid prior file (err %v)", err)
	}

	// A crash that leaves a partial .tmp behind must not disturb the next
	// write.
	if err := os.WriteFile(path+".tmp", valid[:8], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, true, write); err != nil {
		t.Fatalf("write over stale .tmp residue failed: %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(valid, after) {
		t.Fatal("write over stale .tmp residue produced a different file")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("write left %s.tmp behind (stat: %v)", path, err)
	}
}

// TestSaveReplacesFile saves over an existing database while a reader
// holds it open: the reader keeps the complete old file, and the path
// names a new one. A Save that truncated the file in place would hand
// the reader a torn database, and leave one on disk if it died midway.
func TestSaveReplacesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.radb")
	oldTab, err := Pack("old", 4, []game.Value{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	newTab, err := Pack("new", 4, make([]game.Value, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := oldTab.Save(path); err != nil {
		t.Fatal(err)
	}
	oldBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := newTab.Save(path); err != nil {
		t.Fatal(err)
	}
	held, err := io.ReadAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, oldBytes) {
		t.Errorf("open handle reads %d bytes, not the %d of the old file", len(held), len(oldBytes))
	}
	hi, err := h.Stat()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(hi, pi) {
		t.Error("Save rewrote the old file in place instead of replacing it")
	}
	got, err := Load(path)
	if err != nil || got.Name() != "new" || got.Size() != 1000 {
		t.Errorf("Load after Save: %v, %v", got, err)
	}
}
