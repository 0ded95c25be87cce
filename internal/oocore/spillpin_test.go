package oocore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"retrograde/internal/game"
	"retrograde/internal/ra"
	"retrograde/internal/ttt"
)

// spillDigest hashes every spill file in dir — name, length and bytes,
// in name order — into one hex digest. Manifests are left out: they
// carry the prefetch-race counters, which vary from run to run.
func spillDigest(t *testing.T, dir string) string {
	t.Helper()
	files := spillFiles(t, dir)
	if len(files) == 0 {
		t.Fatalf("no spill files in %s", dir)
	}
	slices.Sort(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(p)))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestSpillImagePinned pins the bytes of every spill file a capped solve
// leaves behind, completed (KeepStore) and paused after three waves, for
// an awari rung under each kernel and for tic-tac-toe, and of a one-shard
// store written by SaveShard. Pipelined and synchronous spilling
// (Writeback < 0, NoPrefetch) must leave the same bytes. Spill format version 2 is a durable
// format: a change to how a position's state becomes a stored symbol, to
// the codec choice or to the framing changes these digests, and a store
// written by one build must resume under the next.
func TestSpillImagePinned(t *testing.T) {
	awari8 := awariSlice(t, 8)
	type pin struct {
		name              string
		g                 game.Game
		kern              ra.Kernel
		completed, paused string
	}
	for _, want := range []pin{
		{"awari-8 swar", awari8, ra.KernelSWAR, "269c68a6622bea357f587c19f58715f3", "73687ce1864c5dbf4c11b6bc802a79ce"},
		{"awari-8 scalar", awari8, ra.KernelScalar, "9228a81d69f284a4401b1bcb83590e1b", "5d094913bf6fa301eadfb5c9903ebee9"},
		{"ttt", ttt.New(), ra.KernelAuto, "3fe56b083f38ab9f257ba5579e5f76d6", "8e523b3926d4fb7b8a2208463bd26b0a"},
	} {
		ic, err := ra.InCoreStateBytes(want.g, want.kern)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name       string
			writeback  int
			noPrefetch bool
		}{{"pipelined", 0, false}, {"synchronous", -1, true}} {
			completed := Engine{MemLimit: ic / 4, Dir: t.TempDir(), Kernel: want.kern, KeepStore: true,
				Writeback: mode.writeback, NoPrefetch: mode.noPrefetch}
			if _, err := completed.Solve(want.g); err != nil {
				t.Fatalf("%s %s: %v", want.name, mode.name, err)
			}
			paused := Engine{MemLimit: ic / 4, Dir: t.TempDir(), Kernel: want.kern, StopAfterWaves: 3,
				Writeback: mode.writeback, NoPrefetch: mode.noPrefetch}
			if _, err := paused.Solve(want.g); !errors.Is(err, ra.ErrPaused) {
				t.Fatalf("%s %s: paused solve returned %v, want ra.ErrPaused", want.name, mode.name, err)
			}
			gotCompleted, gotPaused := spillDigest(t, completed.Dir), spillDigest(t, paused.Dir)
			if gotCompleted != want.completed || gotPaused != want.paused {
				t.Errorf("%s %s: spill digests completed %s, paused %s; pinned %s, %s",
					want.name, mode.name, gotCompleted, gotPaused, want.completed, want.paused)
			}
		}
	}

	g := awariSlice(t, 6)
	for _, want := range []struct {
		kern   ra.Kernel
		digest string
	}{
		{ra.KernelSWAR, "f3262a5088ddf2e00d1c6e4e7dbb829b"},
		{ra.KernelScalar, "6f2d0cfc48b571f90a1608df0072501b"},
	} {
		w := initWorker(t, g, 1, 0, want.kern)
		for range 3 {
			w.BeginWave()
			w.ExpandRuns(0, nil)
		}
		dir := filepath.Join(t.TempDir(), "shard")
		if err := SaveShard(dir, w, 3, 2); err != nil {
			t.Fatal(err)
		}
		if got := spillDigest(t, dir); got != want.digest {
			t.Errorf("SaveShard %v: spill digest %s, pinned %s", want.kern, got, want.digest)
		}
	}
}
