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
// (Writeback < 0, NoPrefetch) must leave the same bytes. Spill format
// version 2 and delta format version 1 are durable formats: a change to
// how a position's state becomes a stored symbol, to the codec choice,
// to the framing, or to when a re-spill writes a delta or compacts
// changes these digests, and a store written by one build must resume
// under the next.
//
// The first sixteen spills of each capped solve are its blocks' first
// generations, full images evicted during initialisation; a solve cut
// by the failpoint at the seventeenth leaves exactly those, and their
// digest is the one pinned before deltas existed.
func TestSpillImagePinned(t *testing.T) {
	awari8 := awariSlice(t, 8)
	type pin struct {
		name                         string
		g                            game.Game
		kern                         ra.Kernel
		completed, paused, firstGens string
	}
	for _, want := range []pin{
		{"awari-8 swar", awari8, ra.KernelSWAR, "3f2de699649af315355d936164fa1eb8", "9fd9484f042604edcb65653c5c66ed7b", "5de2c4e948f94cfdc1081abda600943b"},
		{"awari-8 scalar", awari8, ra.KernelScalar, "9f8a27d7e119e5032988b2a681aab518", "f3351bf83ebaa0e686ae58e503df2ef2", "10d4d305a03ac179ee5a0ddd8093b6dc"},
		{"ttt", ttt.New(), ra.KernelAuto, "7635c1947c64096eb7bf4a91bb8235da", "a04082920b53d71090d16092f01da6d7", "cdd77f0b8e9f81f3a9095afe01ce66ed"},
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
			cut := Engine{MemLimit: ic / 4, Dir: t.TempDir(), Kernel: want.kern, failSpillAfter: 17,
				Writeback: mode.writeback, NoPrefetch: mode.noPrefetch}
			if _, err := cut.Solve(want.g); !errors.Is(err, errSimulatedCrash) {
				t.Fatalf("%s %s: cut solve returned %v, want the simulated crash", want.name, mode.name, err)
			}
			gotCompleted, gotPaused, gotFirst := spillDigest(t, completed.Dir), spillDigest(t, paused.Dir), spillDigest(t, cut.Dir)
			if gotCompleted != want.completed || gotPaused != want.paused || gotFirst != want.firstGens {
				t.Errorf("%s %s: spill digests completed %s, paused %s, first generations %s; pinned %s, %s, %s",
					want.name, mode.name, gotCompleted, gotPaused, gotFirst, want.completed, want.paused, want.firstGens)
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
