package oocore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"retrograde/internal/game"
	"retrograde/internal/nim"
	"retrograde/internal/ra"
)

// initWorker returns shard me of a p-way cyclic partition of g, initialised.
func initWorker(t *testing.T, g game.Game, p, me int, k ra.Kernel) *ra.Worker {
	t.Helper()
	w, err := ra.NewWorkerKernel(g, ra.Cyclic(g.Size(), p), me, k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Init(); err != nil {
		t.Fatal(err)
	}
	return w
}

// spillFiles returns the spill files in a shard store.
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "block-*"+spillSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCheckpointRoundTripMidAnalysis interrupts a solve under each kernel
// in the middle of a wave, moves the worker through a one-shard store and
// finishes it: the restored worker must keep its kernel and the resumed
// solve must be bit-identical — database, waves, loop set and work
// counters — to an uninterrupted one. Saving again over the store
// commits the next generation and leaves one spill file.
func TestCheckpointRoundTripMidAnalysis(t *testing.T) {
	g := awariSlice(t, 6)
	for _, k := range []ra.Kernel{ra.KernelScalar, ra.KernelSWAR} {
		want, err := ra.Sequential{Config: ra.Config{Kernel: k}}.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		w := initWorker(t, g, 1, 0, k)
		waves := 0
		for ; waves < 3 && w.BeginWave() > 0; waves++ {
			w.ExpandRuns(0, nil)
		}
		if n := w.BeginWave(); n > 0 {
			waves++
			w.ExpandRuns(n/2, nil)
		}
		dir := filepath.Join(t.TempDir(), "shard")
		for range 2 {
			if err := SaveShard(dir, w, uint64(waves), uint64(waves-1)); err != nil {
				t.Fatalf("%v: %v", k, err)
			}
		}
		files := spillFiles(t, dir)
		if len(files) != 1 || filepath.Base(files[0]) != "block-000000.g2"+spillSuffix {
			t.Fatalf("%v: saving twice left spill files %v, want generation 2 alone", k, files)
		}
		fi, err := os.Stat(files[0])
		if err != nil {
			t.Fatal(err)
		}
		raw := k.BytesPerPosition()
		if perPos := float64(fi.Size()) / float64(g.Size()); perPos >= float64(raw) {
			t.Errorf("%v: spill file is %.2f B/position, not below the raw %d", k, perPos, raw)
		}
		restored, wave, saved, err := RestoreShard(dir, g)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if restored.Kernel() != k {
			t.Fatalf("store of a %v worker restored as %v", k, restored.Kernel())
		}
		if wave != uint64(waves) || saved != uint64(waves-1) {
			t.Errorf("%v: restored wave %d/%d, saved %d/%d", k, wave, saved, waves, waves-1)
		}
		restored.ExpandRuns(0, nil) // the rest of the interrupted wave
		for restored.BeginWave() > 0 {
			waves++
			restored.ExpandRuns(0, nil)
		}
		restored.ResolveLoops()
		got := ra.NewResult(restored.Partition(), waves)
		got.Collect(restored)
		compareResults(t, k.String()+" resumed", want, got)
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
	dir := filepath.Join(t.TempDir(), "shard")
	if err := SaveShard(dir, initWorker(t, g, 1, 0, ra.KernelScalar), 1, 0); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptSpillError
	if _, _, _, err := RestoreShard(dir, nim.MustNew(3, 4)); !errors.As(err, &ce) {
		t.Errorf("store of a different-sized game restored (err %v)", err)
	}
}

// TestCheckpointDetectsCorruption: a flipped spill byte and a flipped
// manifest byte are each a CorruptSpillError naming the damaged file; a
// store whose manifest never landed is not a store at all.
func TestCheckpointDetectsCorruption(t *testing.T) {
	g := nim.MustNew(2, 4)
	w := initWorker(t, g, 3, 1, ra.KernelScalar)
	dir := filepath.Join(t.TempDir(), "shard")
	if err := SaveShard(dir, w, 2, 1); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, ManifestName)
	for _, path := range []string{spillFiles(t, dir)[0], mpath} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int{0, len(data) / 2, len(data) - 1} {
			bad := bytes.Clone(data)
			bad[off] ^= 0x40
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err := RestoreShard(dir, g)
			var ce *CorruptSpillError
			if !errors.As(err, &ce) || ce.Path != path {
				t.Errorf("%s with byte %d flipped: err %v, want a CorruptSpillError naming it", filepath.Base(path), off, err)
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := RestoreShard(dir, g); err != nil {
		t.Fatalf("repaired store: %v", err)
	}
	os.Remove(mpath)
	if _, _, _, err := RestoreShard(dir, g); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("store without a manifest: err %v, want os.ErrNotExist", err)
	}
}
