package ra

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/nim"
	"retrograde/internal/ttt"
)

// snapshot serialises a worker or fails the test.
func snapshot(t testing.TB, w *Worker) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// midAnalysis runs three full waves and half of a fourth, so the worker's
// expansion queue, next queue and state are all non-trivial.
func midAnalysis(w *Worker) (waves int) {
	mustInit(w)
	for ; waves < 3 && w.BeginWave() > 0; waves++ {
		w.ExpandRuns(0, nil)
	}
	if n := w.BeginWave(); n > 0 {
		waves++
		w.ExpandRuns(n/2, nil)
	}
	return waves
}

// TestCheckpointRoundTripMidAnalysis interrupts a solve under each
// kernel, moves the worker through a snapshot, and finishes it: the
// restored worker must keep its kernel and the resumed solve must be
// bit-identical — database, waves, loop set and work counters — to an
// uninterrupted one.
func TestCheckpointRoundTripMidAnalysis(t *testing.T) {
	g := awariRung(t, 6, awari.Standard, awari.LoopOwnSide)
	part := Cyclic(g.Size(), 1)
	for _, k := range []Kernel{KernelScalar, KernelSWAR} {
		want, err := solveSequential(g, k)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkerKernel(g, part, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		waves := midAnalysis(w)
		data := snapshot(t, w)
		if perPos := float64(len(data)) / float64(g.Size()); perPos > 4.5 {
			t.Errorf("%v: snapshot is %.1f B/position, want about 4", k, perPos)
		}
		restored, err := ReadSnapshot(g, part, 0, bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if restored.Kernel() != k {
			t.Fatalf("snapshot of a %v worker restored as %v", k, restored.Kernel())
		}
		restored.ExpandRuns(0, nil) // the rest of the interrupted wave
		for restored.BeginWave() > 0 {
			waves++
			restored.ExpandRuns(0, nil)
		}
		restored.ResolveLoops()
		got := NewResult(part, waves)
		got.Collect(restored)
		sameResult(t, k.String()+" resumed", want, got)
		if got.Workers[0] != want.Workers[0] {
			t.Errorf("%v: resumed stats %+v, uninterrupted %+v", k, got.Workers[0], want.Workers[0])
		}
		if got.Kernel != want.Kernel {
			t.Errorf("resumed result names kernel %q, want %q", got.Kernel, want.Kernel)
		}
	}
}

func TestCheckpointRejectsWrongGame(t *testing.T) {
	g := nim.MustNew(2, 4)
	w := NewWorker(g, Cyclic(g.Size(), 1), 0)
	mustInit(w)
	other := nim.MustNew(3, 4)
	if _, err := ReadSnapshot(other, Cyclic(other.Size(), 1), 0, bytes.NewReader(snapshot(t, w))); err == nil {
		t.Error("snapshot of a different-sized shard was accepted")
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	g := nim.MustNew(2, 4)
	part := Cyclic(g.Size(), 1)
	w := NewWorker(g, part, 0)
	mustInit(w)
	data := snapshot(t, w)
	for _, off := range []int{0, 9 + len(data)/2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := ReadSnapshot(g, part, 0, bytes.NewReader(bad)); err == nil {
			t.Errorf("snapshot with byte %d flipped was accepted", off)
		}
	}
	if _, err := ReadSnapshot(g, part, 0, bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated snapshot was accepted")
	}
}

// TestAtomicWriteNeverReplacesValidCheckpoint interrupts a checkpoint
// write mid-stream and checks the prior file survives intact and no
// .tmp residue is left — the crash-mid-write contract of WriteFileAtomic.
func TestAtomicWriteNeverReplacesValidCheckpoint(t *testing.T) {
	g := ttt.New()
	path := filepath.Join(t.TempDir(), "ttt.snap")

	part := Cyclic(g.Size(), 1)
	w := NewWorker(g, part, 0)
	mustInit(w)
	if err := WriteFileAtomic(path, w.WriteSnapshot); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A write that dies mid-stream: some bytes, then the plug is pulled.
	boom := errors.New("simulated crash")
	err = WriteFileAtomic(path, func(out io.Writer) error {
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
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(valid, after) {
		t.Fatal("interrupted write clobbered the valid prior checkpoint")
	}
	if _, err := ReadSnapshot(g, part, 0, bytes.NewReader(after)); err != nil {
		t.Fatalf("prior checkpoint no longer readable: %v", err)
	}

	// A crash that leaves a partial .tmp behind must not disturb the next
	// write.
	if err := os.WriteFile(path+".tmp", valid[:8], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, w.WriteSnapshot); err != nil {
		t.Fatalf("write over stale .tmp residue failed: %v", err)
	}
	if after, _ = os.ReadFile(path); !bytes.Equal(valid, after) {
		t.Fatal("write over stale .tmp residue produced a different checkpoint")
	}
}
