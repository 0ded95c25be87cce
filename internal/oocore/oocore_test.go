package oocore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/kalah"
	"retrograde/internal/ladder"
	"retrograde/internal/nim"
	"retrograde/internal/ra"
	"retrograde/internal/ttt"
)

// compareResults requires two results to describe the same database —
// the bit-identity gate every out-of-core configuration must pass
// against the in-core oracle.
func compareResults(t *testing.T, label string, want, got *ra.Result) {
	t.Helper()
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: length mismatch: %d vs %d", label, len(want.Values), len(got.Values))
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("%s: values differ at %d: %d vs %d", label, i, want.Values[i], got.Values[i])
		}
	}
	for i := range want.Loop {
		if got.Loop[i] != want.Loop[i] {
			t.Fatalf("%s: loop bitsets differ at word %d", label, i)
		}
	}
	if got.Waves != want.Waves {
		t.Errorf("%s: waves %d vs %d", label, want.Waves, got.Waves)
	}
	if got.LoopPositions != want.LoopPositions {
		t.Errorf("%s: loop positions %d vs %d", label, want.LoopPositions, got.LoopPositions)
	}
}

// checkSpillClocks requires the spill clocks to have run wherever the
// counters say spill I/O happened.
func checkSpillClocks(t *testing.T, label string, st SpillStats) {
	t.Helper()
	if st.Spilled > 0 && st.EncodeTime+st.WriteTime <= 0 {
		t.Errorf("%s: %d spills but no encode or write time", label, st.Spilled)
	}
	if st.Reloaded > 0 && st.ReadTime+st.DecodeTime <= 0 {
		t.Errorf("%s: %d reloads but no read or decode time", label, st.Reloaded)
	}
}

// twoBlockEngines are the tightest capped configurations: 64-position
// blocks under a cap that holds two of them, synchronous and pipelined.
// Nearly every cross-block run parks, so on the last wave every frontier
// block defers its begin and begins empty — the pass that must not count
// as a wave.
func twoBlockEngines(t *testing.T, g game.Game, kern ra.Kernel) []Engine {
	ic, err := ra.InCoreStateBytes(g, kern)
	if err != nil {
		t.Fatal(err)
	}
	two := max(2*64*ic/g.Size(), 1)
	return []Engine{
		{MemLimit: two, Kernel: kern, BlockLen: 64},
		{MemLimit: two, Kernel: kern, BlockLen: 64, Writeback: -1, NoPrefetch: true},
	}
}

// TestOutOfCoreParityAwari is the acceptance gate over a cyclic,
// SWAR-eligible game: every rung of an awari ladder must solve
// bit-identically to the in-core sequential oracle under both kernels
// and under memory caps down to a sliver of the in-core footprint, with
// spill traffic actually happening once the cap is below the footprint;
// every rung up to 7 also solves at a two-block cap.
func TestOutOfCoreParityAwari(t *testing.T) {
	lad, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 7,
		ra.Sequential{Config: ra.Config{Kernel: ra.KernelScalar}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const top = 6 // the cap matrix and the run-parity check stop here
	for n := 0; n <= lad.MaxStones(); n++ {
		g := lad.Slice(n)
		want := lad.Result(n)
		// The scalar games cover the scalar kernel at a two-block cap.
		for _, e := range twoBlockEngines(t, g, ra.KernelSWAR) {
			e.Dir = t.TempDir()
			label := fmt.Sprintf("%s two-block cap (writeback %d)", g.Name(), e.Writeback)
			got, err := e.Solve(g)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			compareResults(t, label, want, got)
		}
		if n < 3 || n > top {
			continue
		}
		for _, kern := range []ra.Kernel{ra.KernelScalar, ra.KernelSWAR} {
			ic, err := ra.InCoreStateBytes(g, kern)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []uint64{1, 2, 8} {
				cap := ic / frac
				if cap == 0 {
					cap = 1
				}
				e := Engine{
					MemLimit: cap,
					Dir:      t.TempDir(),
					Kernel:   kern,
				}
				got, st, err := e.SolveDetailed(g)
				if err != nil {
					t.Fatalf("%s %v cap=%d: %v", g.Name(), kern, cap, err)
				}
				label := g.Name() + " " + kern.String()
				compareResults(t, label, want, got)
				checkSpillClocks(t, label, st)
				if frac >= 2 && st.Spilled == 0 && st.Blocks > 1 {
					t.Errorf("%s cap=%d/%d: no spill traffic below the in-core footprint", label, cap, ic)
				}
				if st.PeakResidentBytes == 0 {
					t.Errorf("%s: zero peak resident bytes", label)
				}
			}
		}
		if n != top {
			continue
		}
		// Run parity on the top rung at a 25 % cap: behind a wrapper that
		// hides the batch generators the scalar blocks walk the per-
		// position adapters, and must do the same work on every block.
		var byWalk [2]*ra.Result
		for i, walk := range []game.Game{g, struct{ game.Game }{g}} {
			e := Engine{MemLimit: max(g.Size()*ra.StateBytesPerPosition/4, 1), Dir: t.TempDir(), Kernel: ra.KernelScalar}
			if byWalk[i], _, err = e.SolveDetailed(walk); err != nil {
				t.Fatalf("%s run parity: %v", g.Name(), err)
			}
			compareResults(t, g.Name()+" run parity", want, byWalk[i])
		}
		if !slices.Equal(byWalk[0].Workers, byWalk[1].Workers) {
			t.Errorf("%s: work counters %+v, per-position walk %+v", g.Name(), byWalk[0].Workers, byWalk[1].Workers)
		}
	}
}

// TestOutOfCoreResidencyPerWave bounds the block traffic of a capped
// solve: each wave loads every block it touches at most once, and the
// final assembly loads each block once more, so reloads never exceed
// (waves+1) × blocks. The solve runs on the host driver's one goroutine,
// whose phase clocks it reports.
func TestOutOfCoreResidencyPerWave(t *testing.T) {
	lad, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 10, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{9, 10} {
		g := lad.Slice(n)
		ic, err := ra.InCoreStateBytes(g, ra.KernelAuto)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := Engine{MemLimit: ic / 4, Dir: t.TempDir()}.SolveDetailed(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		compareResults(t, g.Name()+" at a 25% cap", lad.Result(n), got)
		if bound := uint64(got.Waves+1) * uint64(st.Blocks); st.Reloaded > bound {
			t.Errorf("%s: %d reloads over %d waves of %d blocks, want ≤ %d", g.Name(), st.Reloaded, got.Waves, st.Blocks, bound)
		}
		if len(got.Phases) != 1 || got.Phases[0].Init <= 0 || got.Phases[0].Expand <= 0 || got.Phases[0].Fill <= 0 {
			t.Errorf("%s: phase clocks %+v, want one goroutine's with init, expand and fill time", g.Name(), got.Phases)
		}
	}
}

// TestFinalPassDropsCollectedBlocks checks that the final pass drops a
// block once its values are collected instead of spilling it to make
// room for the next one. Only ResolveLoops, which the final pass runs
// just before Collect, flags a position as loop-resolved (final with a
// counter left over), so at a two-block cap on awari-9 — where every
// block but the last two leaves core again during that pass — no spill
// generation the solve writes may hold such a position.
func TestFinalPassDropsCollectedBlocks(t *testing.T) {
	lad, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 9, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := lad.Slice(9)
	const blockLen = 4096
	two := uint64(2 * blockLen * ra.StateBytesPerPosition)
	for _, e := range []Engine{
		{MemLimit: two, Kernel: ra.KernelScalar, BlockLen: blockLen},
		{MemLimit: two, Kernel: ra.KernelScalar, BlockLen: blockLen, Writeback: -1, NoPrefetch: true},
	} {
		e.Dir, e.KeepStore = t.TempDir(), true
		label := fmt.Sprintf("%s two-block cap (writeback %d)", g.Name(), e.Writeback)
		got, st, err := e.SolveDetailed(g)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		compareResults(t, label, lad.Result(9), got)
		if got.LoopPositions == 0 || st.Spilled == 0 {
			t.Fatalf("%s: %d loop positions, %d spills: the check below would be vacuous", label, got.LoopPositions, st.Spilled)
		}
		files, err := filepath.Glob(filepath.Join(e.Dir, "block-*"+spillSuffix))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no spill files kept (%v)", label, err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, meta, err := decodeSpill(path, data, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range meta {
				if m&1 == 1 && m>>1 > 0 {
					t.Fatalf("%s: %s holds loop-resolved position %d: a block was spilled after its Collect", label, filepath.Base(path), i)
				}
			}
		}
	}
}

// TestOutOfCoreParityScalarGames covers the scalar-kernel update path
// (per-update routing with run coalescing) on wide-valued games; kalah
// would pick the SWAR kernel, so the kernel is pinned.
func TestOutOfCoreParityScalarGames(t *testing.T) {
	klad, err := kalah.BuildLadder(5, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []game.Game{ttt.New(), nim.MustNew(3, 4), klad.Slice(5)} {
		want, err := ra.Sequential{}.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		ic, err := ra.InCoreStateBytes(g, ra.KernelScalar)
		if err != nil {
			t.Fatal(err)
		}
		engines := []Engine{{MemLimit: ic}, {MemLimit: ic/2 + 1}, {MemLimit: max(ic/5, 1)}}
		for _, e := range append(engines, twoBlockEngines(t, g, ra.KernelScalar)...) {
			e.Dir, e.Kernel = t.TempDir(), ra.KernelScalar
			label := fmt.Sprintf("%s cap=%d blockLen=%d writeback=%d", g.Name(), e.MemLimit, e.BlockLen, e.Writeback)
			got, st, err := e.SolveDetailed(g)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			compareResults(t, label, want, got)
			if got.Kernel != "scalar" {
				t.Fatalf("%s: kernel %q, want scalar", label, got.Kernel)
			}
			if e.MemLimit < ic && st.Spilled == 0 {
				t.Errorf("%s: no spill traffic below the in-core footprint %d", label, ic)
			}
		}
	}
}

// TestOutOfCorePipelineParity is the scheduler's bit-identity gate:
// every pipeline configuration — write-behind + prefetch (the default),
// each alone, and fully synchronous — must land on the same database as
// the in-core oracle across caps, with counters consistent with the
// configuration. Awari runs at the engine's auto block size, so the
// synchronous-vs-pipelined A/B covers the SWAR kernel's spill path.
func TestOutOfCorePipelineParity(t *testing.T) {
	for _, g := range []game.Game{ttt.New(), nim.MustNew(3, 4), awariSlice(t, 6)} {
		want, err := ra.Sequential{}.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		ic, err := ra.InCoreStateBytes(g, ra.KernelAuto)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []uint64{1, 2, 6} {
			memCap := ic / frac
			if memCap == 0 {
				memCap = 1
			}
			for _, tc := range []struct {
				name string
				wb   int
				nopf bool
			}{
				{"pipelined", 0, false},
				{"writeback-only", 0, true},
				{"prefetch-only", -1, false},
				{"sync", -1, true},
			} {
				e := Engine{MemLimit: memCap, Dir: t.TempDir(), Writeback: tc.wb, NoPrefetch: tc.nopf}
				got, st, err := e.SolveDetailed(g)
				label := g.Name() + " " + tc.name
				if err != nil {
					t.Fatalf("%s cap=%d: %v", label, memCap, err)
				}
				compareResults(t, label, want, got)
				checkSpillClocks(t, label, st)
				if tc.nopf && (st.PrefetchIssued != 0 || st.PrefetchHits != 0) {
					t.Errorf("%s: prefetch counters %d/%d with the prefetcher disabled", label, st.PrefetchIssued, st.PrefetchHits)
				}
				if tc.wb < 0 && st.WriteStalls != 0 {
					t.Errorf("%s: %d write stalls with synchronous spilling", label, st.WriteStalls)
				}
				if st.PrefetchHits > st.PrefetchIssued {
					t.Errorf("%s: %d prefetch hits exceed %d issued", label, st.PrefetchHits, st.PrefetchIssued)
				}
				if st.PrefetchHits > st.Reloaded {
					t.Errorf("%s: %d prefetch hits exceed %d reloads", label, st.PrefetchHits, st.Reloaded)
				}
				if !tc.nopf && frac >= 6 && st.Reloaded > 0 && st.PrefetchIssued == 0 {
					t.Errorf("%s cap=%d: %d reloads but the prefetcher never fired", label, memCap, st.Reloaded)
				}
			}
		}
	}
}

// awariSlice returns awari rung n over its in-core ladder.
func awariSlice(t *testing.T, n int) game.Game {
	t.Helper()
	lad, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, n, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return lad.Slice(n)
}

// TestOutOfCorePauseResume drives a solve one wave at a time through
// StopAfterWaves: every intermediate call must return ra.ErrPaused with
// a durable manifest behind it, and the final call must complete to a
// database bit-identical to the uninterrupted solve. Some paused
// manifests must carry parked runs, so resuming into a deferred begin is
// exercised.
func TestOutOfCorePauseResume(t *testing.T) {
	for _, g := range []game.Game{ttt.New(), awariSlice(t, 6)} {
		want, err := ra.Sequential{}.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		ic, _ := ra.InCoreStateBytes(g, ra.KernelAuto)
		dir := t.TempDir()
		e := Engine{MemLimit: ic / 3, Dir: dir, StopAfterWaves: 1}
		var got *ra.Result
		pauses, parked := 0, 0
		var lastSpilled, lastCheckpoints uint64
		for i := 0; i < want.Waves+2; i++ {
			r, st, err := e.SolveDetailed(g)
			if errors.Is(err, ra.ErrPaused) {
				pauses++
				info, err := InspectDir(dir)
				if err != nil || !info.HasManifest {
					t.Fatalf("%s: pause %d left no manifest: %v", g.Name(), pauses, err)
				}
				if info.Pending > 0 {
					parked++
				}
				if pauses > 1 && !st.Resumed {
					t.Fatalf("%s: pause %d did not resume from the manifest", g.Name(), pauses)
				}
				// The v2 manifest carries the cumulative counters, so each
				// resumed leg continues counting instead of starting over.
				if st.Spilled < lastSpilled || st.Checkpoints < lastCheckpoints {
					t.Fatalf("%s: pause %d: counters went backwards: spilled %d→%d, checkpoints %d→%d",
						g.Name(), pauses, lastSpilled, st.Spilled, lastCheckpoints, st.Checkpoints)
				}
				lastSpilled, lastCheckpoints = st.Spilled, st.Checkpoints
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			got = r
			break
		}
		if got == nil {
			t.Fatalf("%s: solve never completed after %d pauses", g.Name(), pauses)
		}
		if pauses != want.Waves {
			t.Errorf("%s: paused %d times, want one per wave = %d", g.Name(), pauses, want.Waves)
		}
		if parked == 0 {
			t.Errorf("%s: none of %d paused manifests carried parked runs", g.Name(), pauses)
		}
		compareResults(t, "paused "+g.Name(), want, got)
		if _, err := os.Stat(filepath.Join(dir, ManifestName)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: completed solve left the manifest behind (err=%v)", g.Name(), err)
		}
	}
}

// TestOutOfCoreCrashResume kills a solve mid-wave via the spill-store
// failpoint — after checkpoints exist and with newer unpinned spill
// generations on disk — and requires the resumed solve to land on the
// bit-identical database. This is the crash-consistency contract: the
// manifest pins complete generations, everything newer is ignorable.
// Awari also runs with synchronous spilling, whose failing spill returns
// the error itself.
func TestOutOfCoreCrashResume(t *testing.T) {
	type input struct {
		name string
		g    game.Game
		sync bool
	}
	awari6 := awariSlice(t, 6)
	for _, in := range []input{
		{"ttt", ttt.New(), false},
		{"awari-6", awari6, false},
		// Synchronous spilling fails the spill that hits the failpoint
		// itself, on the engine thread.
		{"awari-6 synchronous", awari6, true},
	} {
		g := in.g
		want, err := ra.Sequential{}.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		ic, _ := ra.InCoreStateBytes(g, ra.KernelAuto)
		engine := func(dir string, failAt int) Engine {
			e := Engine{MemLimit: ic / 4, Dir: dir, CheckpointEvery: 1, failSpillAfter: failAt}
			if in.sync {
				e.Writeback, e.NoPrefetch = -1, true
			}
			return e
		}
		resumes, parked := 0, 0
		for _, failAt := range []int{1, 7, 60, 120, 180} {
			dir := t.TempDir()
			_, _, err := engine(dir, failAt).SolveDetailed(g)
			if err == nil {
				// The solve finished before the failpoint; later points only
				// get farther away.
				break
			}
			if !errors.Is(err, errSimulatedCrash) {
				t.Fatalf("%s failAt=%d: crash run returned %v, want simulated crash", in.name, failAt, err)
			}
			// The contract: a manifest on disk means the run resumes from it;
			// no manifest (crash before the first checkpoint) means a clean
			// restart. Either way the database comes out bit-identical.
			info, err := InspectDir(dir)
			if err != nil {
				t.Fatalf("%s failAt=%d: store unreadable after crash: %v", in.name, failAt, err)
			}
			hadManifest := info.HasManifest
			if info.Pending > 0 {
				parked++
			}
			got, st, err := engine(dir, 0).SolveDetailed(g)
			if err != nil {
				t.Fatalf("%s failAt=%d: resume: %v", in.name, failAt, err)
			}
			if st.Resumed != hadManifest {
				t.Errorf("%s failAt=%d: resumed=%v with manifest present=%v", in.name, failAt, st.Resumed, hadManifest)
			}
			if st.Resumed {
				resumes++
			}
			compareResults(t, "crash-resumed "+in.name, want, got)
		}
		if resumes == 0 {
			t.Errorf("%s: no crash point landed after a checkpoint; the resume path went unexercised", in.name)
		}
		if parked == 0 {
			t.Errorf("%s: no crash left a manifest with parked runs; resuming into a deferred begin went unexercised", in.name)
		}
	}
}

// TestOutOfCoreCrashWritesInFlight kills the solve through the spill
// failpoint while the write-behind queue is busy mid-wave — far from any
// checkpoint quiesce — and requires the original write error to surface
// (not a confusing missing-file read) and the store to stay resumable to
// the bit-identical database. This is the drain-mode contract: after the
// first failure nothing is written and nothing superseded is deleted, so
// every manifest-pinned generation survives.
func TestOutOfCoreCrashWritesInFlight(t *testing.T) {
	g := ttt.New()
	want, err := ra.Sequential{}.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	ic, _ := ra.InCoreStateBytes(g, ra.KernelAuto)
	crashes := 0
	for _, failAt := range []int{2, 5, 9, 14, 40, 90} {
		dir := t.TempDir()
		crash := Engine{
			MemLimit:        ic / 6,
			Dir:             dir,
			CheckpointEvery: 3,
			failSpillAfter:  failAt,
		}
		_, _, err := crash.SolveDetailed(g)
		if err == nil {
			break
		}
		crashes++
		if !errors.Is(err, errSimulatedCrash) {
			t.Fatalf("failAt=%d: crash run returned %v, want simulated crash", failAt, err)
		}
		if _, err := InspectDir(dir); err != nil {
			t.Fatalf("failAt=%d: store unreadable after crash: %v", failAt, err)
		}
		resume := Engine{MemLimit: ic / 6, Dir: dir, CheckpointEvery: 3}
		got, _, err := resume.SolveDetailed(g)
		if err != nil {
			t.Fatalf("failAt=%d: resume: %v", failAt, err)
		}
		compareResults(t, "in-flight crash resume", want, got)
	}
	if crashes == 0 {
		t.Error("no failpoint fired; the in-flight crash path went unexercised")
	}
}

// TestOutOfCoreResumeMismatch: an engine missing its cap or its spill
// directory must refuse to solve, and a manifest from a different
// configuration must be rejected as corrupt, not silently reinterpreted.
func TestOutOfCoreResumeMismatch(t *testing.T) {
	g := ttt.New()
	ic, _ := ra.InCoreStateBytes(g, ra.KernelAuto)
	if _, err := (Engine{Dir: t.TempDir()}).Solve(g); err == nil {
		t.Error("Solve accepted a zero MemLimit")
	}
	if _, err := (Engine{MemLimit: ic}).Solve(g); err == nil {
		t.Error("Solve accepted an empty Dir")
	}
	dir := t.TempDir()
	e := Engine{MemLimit: ic, Dir: dir, StopAfterWaves: 1, BlockLen: 128}
	if _, _, err := e.SolveDetailed(g); !errors.Is(err, ra.ErrPaused) {
		t.Fatalf("pause run: %v", err)
	}
	other := Engine{MemLimit: ic, Dir: dir, BlockLen: 256}
	_, _, err := other.SolveDetailed(g)
	var ce *CorruptSpillError
	if !errors.As(err, &ce) {
		t.Fatalf("mismatched resume returned %v, want CorruptSpillError", err)
	}
}

// TestSpillBlockRoundtrip: pack → encode → decode must be bit-exact for
// state stream shapes both kernels produce, including scalar NoValue.
func TestSpillBlockRoundtrip(t *testing.T) {
	n := 1000
	vals := make([]game.Value, n)
	meta := make([]game.Value, n)
	for i := range vals {
		// Deterministic mix: runs, alternation, NoValue stretches, full
		// 16-bit spread — the shapes that pick different codecs.
		switch {
		case i < 300:
			vals[i] = 5
			meta[i] = 1
		case i < 600:
			vals[i] = game.NoValue
			meta[i] = game.Value(i%7) << 1
		default:
			vals[i] = game.Value(i * 2654435761 % 65536)
			meta[i] = game.Value(i%2 | i%16<<1)
		}
	}
	enc, err := encodeSpill(nil, 42, ra.KernelScalar, vals, meta)
	if err != nil {
		t.Fatal(err)
	}
	blk, kern, dv, dm, err := decodeSpill("test", enc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blk != 42 || kern != ra.KernelScalar {
		t.Fatalf("header roundtrip: block=%d kernel=%v", blk, kern)
	}
	for i := range vals {
		if dv[i] != vals[i] || dm[i] != meta[i] {
			t.Fatalf("stream roundtrip differs at %d: (%d,%d) vs (%d,%d)", i, dv[i], dm[i], vals[i], meta[i])
		}
	}

	// Every corruption — truncation, bit flips anywhere, garbage — must
	// surface as CorruptSpillError, never a panic or silent success.
	for cut := 0; cut < len(enc); cut += 7 {
		if _, _, _, _, err := decodeSpill("trunc", enc[:cut], nil, nil); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	for off := 0; off < len(enc); off += 11 {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x40
		_, _, _, _, err := decodeSpill("flip", bad, nil, nil)
		var ce *CorruptSpillError
		if err == nil || !errors.As(err, &ce) {
			t.Fatalf("bit flip at %d: err=%v, want CorruptSpillError", off, err)
		}
	}
}

// TestSpillLaneRoundtrip: every one of the 256 SWAR symbols (value |
// final<<4 | counter<<5) must survive encode → decode, in a block of
// distinct symbols (raw codec) and in a skewed block that also holds all
// of them (Huffman), and must be a lane RestoreState accepts and
// PackState gives back unchanged.
func TestSpillLaneRoundtrip(t *testing.T) {
	lad, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 4, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := lad.Slice(4)
	part, err := ra.NewPartition(g.Size(), int((g.Size()+255)/256), 256) // block 0 holds 256 positions
	if err != nil {
		t.Fatal(err)
	}
	w, err := ra.NewWorkerKernel(g, part, 0, ra.KernelSWAR)
	if err != nil {
		t.Fatal(err)
	}
	skewed := make([]game.Value, 4096)
	for i := range skewed {
		skewed[i] = game.Value(i % 256)
		if i >= 256 {
			skewed[i] = game.Value(i * i % 7)
		}
	}
	for _, syms := range [][]game.Value{skewed[:256], skewed} {
		enc, err := encodeSpill(nil, 0, ra.KernelSWAR, syms, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _, dv, dm, err := decodeSpill("lanes", enc, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dv, syms) || len(dm) != 0 {
			t.Fatalf("%d-position lane block does not round-trip", len(syms))
		}
		if len(syms) != 256 {
			continue
		}
		if err := w.RestoreState(dv, dm); err != nil {
			t.Fatalf("decoded symbols are not valid lanes: %v", err)
		}
		if pv, pm := w.PackState(nil, nil); !slices.Equal(pv, syms) || len(pm) != 0 {
			t.Fatal("RestoreState → PackState changed a lane")
		}
	}

	// A SWAR symbol wider than a byte, or a meta stream beside the SWAR
	// symbols, is a packing bug, not a lane.
	if _, err := encodeSpill(nil, 0, ra.KernelSWAR, []game.Value{3, 256}, nil); err == nil {
		t.Error("encodeSpill accepted a 9-bit SWAR symbol")
	}
	if _, err := encodeSpill(nil, 0, ra.KernelSWAR, []game.Value{3, 16}, []game.Value{1, 0}); err == nil {
		t.Error("encodeSpill accepted a meta stream for a SWAR block")
	}
	if err := w.RestoreState(append(slices.Clone(skewed[:255]), 256), nil); err == nil {
		t.Error("RestoreState accepted a 9-bit SWAR symbol")
	}
}

// TestSpillRejectsVersion1: a store left by a build that spilled in
// format version 1 must fail the resume with a typed error naming the
// version, never be decoded as version 2.
func TestSpillRejectsVersion1(t *testing.T) {
	g := ttt.New()
	ic, _ := ra.InCoreStateBytes(g, ra.KernelAuto)
	dir := t.TempDir()
	if _, _, err := (Engine{MemLimit: ic / 4, Dir: dir, StopAfterWaves: 1}).SolveDetailed(g); !errors.Is(err, ra.ErrPaused) {
		t.Fatalf("pause run: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "block-*"+spillSuffix))
	if err != nil || len(files) == 0 {
		t.Fatalf("paused store has no block files (%v)", err)
	}
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(data[4:], 1)
		body := len(data) - 8
		binary.LittleEndian.PutUint64(data[body:], crc64.Checksum(data[:body], db.CRC64Table))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = Engine{MemLimit: ic / 4, Dir: dir}.SolveDetailed(g)
	var ce *CorruptSpillError
	if !errors.As(err, &ce) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("resume over version 1 spill files returned %v, want a CorruptSpillError naming version 1", err)
	}
}

// TestManifestRoundtrip covers the durable root: full write/read
// equality plus corruption rejection.
func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	mf := &manifest{
		size:   1000,
		kernel: ra.KernelSWAR,
		shards: 4,
		group:  256,
		waves:  17,
		counters: SpillCounters{
			Spilled: 31, Deltas: 20, Compactions: 3, Reloaded: 27, SpillBytesWritten: 40961, SpillBytesRead: 38112,
			Checkpoints: 4, PrefetchIssued: 19, PrefetchHits: 16, WriteStalls: 2,
		},
		blocks: []manifestBlock{
			{shard: 0, base: 3, stats: ra.WorkerStats{Positions: 256, Finalized: 9}, queue: []uint64{1, 2, 250}},
			{shard: 1, base: 1, stats: ra.WorkerStats{Positions: 256}, next: []uint64{0, 5}},
			{shard: 2, base: 2, stats: ra.WorkerStats{Positions: 256}},
			{shard: 3, base: 7, delta: 9, stats: ra.WorkerStats{Positions: 232},
				pending: []ra.UpdateRun{{Base: 768, Count: 12, Value: 3}}},
		},
	}
	if err := writeManifest(path, mf); err != nil {
		t.Fatal(err)
	}
	got, err := readManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.size != mf.size || got.kernel != mf.kernel || got.shards != mf.shards || got.group != mf.group || got.waves != mf.waves {
		t.Fatalf("header roundtrip: %+v", got)
	}
	if got.counters != mf.counters {
		t.Fatalf("counter roundtrip: %+v vs %+v", got.counters, mf.counters)
	}
	for i := range mf.blocks {
		w, g := &mf.blocks[i], &got.blocks[i]
		if w.shard != g.shard || w.base != g.base || w.delta != g.delta || w.stats != g.stats || len(w.queue) != len(g.queue) ||
			len(w.next) != len(g.next) || len(w.pending) != len(g.pending) {
			t.Fatalf("block %d roundtrip: %+v vs %+v", i, w, g)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 5 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readManifest(path)
		var ce *CorruptSpillError
		if err == nil || !errors.As(err, &ce) {
			t.Fatalf("manifest flip at %d: err=%v, want CorruptSpillError", off, err)
		}
	}
}

// encodeManifestOld lays out the out-of-core store mf in manifest
// version 3, or 2, whose blocks carried a loop-set list after the next
// queue (empty here, as it is at every wave boundary before quiescence).
// Both headers named (blockLen, blocks) instead of the partition, and
// their blocks no shard id.
func encodeManifestOld(mf *manifest, version uint32) []byte {
	le := binary.LittleEndian
	buf := le.AppendUint32([]byte(manifestMagic), version)
	buf = le.AppendUint64(buf, mf.size)
	buf = append(buf, byte(mf.kernel))
	buf = le.AppendUint64(buf, mf.group)
	buf = le.AppendUint32(buf, uint32(len(mf.blocks)))
	buf = le.AppendUint64(buf, mf.waves)
	words := counterWords(&mf.counters)
	for _, k := range v4Counters {
		buf = le.AppendUint64(buf, words[k])
	}
	for _, mb := range mf.blocks {
		buf = le.AppendUint64(buf, mb.base)
		for _, w := range mb.stats.Words() {
			buf = le.AppendUint64(buf, w)
		}
		lists := [][]uint64{mb.queue, mb.next}
		if version == 2 {
			lists = append(lists, nil)
		}
		for _, q := range lists {
			buf = le.AppendUint64(buf, uint64(len(q)))
			for _, l := range q {
				buf = le.AppendUint64(buf, l)
			}
		}
		buf = le.AppendUint64(buf, uint64(len(mb.pending)))
		for _, run := range mb.pending {
			buf = le.AppendUint64(buf, run.Base)
			buf = le.AppendUint32(buf, run.Count)
			buf = le.AppendUint16(buf, uint16(run.Value))
		}
	}
	return le.AppendUint64(buf, crc64.Checksum(buf, db.CRC64Table))
}

// TestManifestRejectsVersion2: a store paused under manifest version 2
// or 3 must not resume. A version 2 store's spilled blocks keep stale
// counters on positions finalized by cutoff, which later versions read as
// loop flags; a version 3 header names no partition. The refusal is a
// CorruptSpillError naming the version — never a silent
// reinterpretation — and leaves the manifest in place.
func TestManifestRejectsVersion2(t *testing.T) {
	g := ttt.New()
	ic, _ := ra.InCoreStateBytes(g, ra.KernelAuto)
	for _, version := range []uint32{2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := t.TempDir()
			e := Engine{MemLimit: ic / 4, Dir: dir, StopAfterWaves: 2}
			if _, _, err := e.SolveDetailed(g); !errors.Is(err, ra.ErrPaused) {
				t.Fatalf("pause run: %v", err)
			}
			path := filepath.Join(dir, ManifestName)
			mf, err := readManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			old := encodeManifestOld(mf, version)
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("version %d", version)
			var ce *CorruptSpillError
			if _, err := readManifest(path); !errors.As(err, &ce) || !strings.Contains(err.Error(), name) {
				t.Fatalf("reading a %s manifest returned %v, want a CorruptSpillError naming it", name, err)
			}
			e.StopAfterWaves = 0
			if _, _, err := e.SolveDetailed(g); !errors.As(err, &ce) || !strings.Contains(err.Error(), name) {
				t.Fatalf("resume over a %s manifest returned %v, want a CorruptSpillError naming it", name, err)
			}
			if data, err := os.ReadFile(path); err != nil || !slices.Equal(data, old) {
				t.Errorf("refused resume disturbed the %s manifest (%v)", name, err)
			}
		})
	}
}

// TestInspectDir: the rastats -spill view of a paused solve and of one
// TCP-mesh node's checkpoint.
func TestInspectDir(t *testing.T) {
	g := ttt.New()
	ic, _ := ra.InCoreStateBytes(g, ra.KernelAuto)
	dir := t.TempDir()
	e := Engine{MemLimit: ic / 4, Dir: dir, StopAfterWaves: 2}
	if _, _, err := e.SolveDetailed(g); !errors.Is(err, ra.ErrPaused) {
		t.Fatalf("pause run: %v", err)
	}
	info, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasManifest {
		t.Fatal("paused store has no manifest")
	}
	if info.Size != g.Size() || info.Kernel != "scalar" || info.Waves != 2 {
		t.Errorf("inspect: %+v", info)
	}
	if info.BlockFiles < info.Blocks {
		t.Errorf("inspect: %d block files for %d blocks", info.BlockFiles, info.Blocks)
	}
	if info.SpillBytes == 0 {
		t.Error("inspect: zero spill bytes")
	}
	if info.Shards != info.Blocks || info.Group != autoBlockLen(g.Size()) || info.Wave != 0 {
		t.Errorf("inspect: out-of-core store reads as partition %d×%d holding %d, wave %d", info.Shards, info.Group, info.Blocks, info.Wave)
	}

	// Four waves in, the store holds deltas: a paused store keeps only
	// what its manifest pins, one base per block and the deltas beside
	// them, and the counters it records say how they were written.
	dir, _ = deltaStore(t, 4)
	if info, err = InspectDir(dir); err != nil {
		t.Fatal(err)
	}
	if info.DeltaFiles == 0 || info.DeltaBytes == 0 || info.DeltaBytes >= info.SpillBytes || info.Deltas == 0 {
		t.Errorf("inspect: a store four waves in reports %d deltas of %d B in %d B, %d delta spills",
			info.DeltaFiles, info.DeltaBytes, info.SpillBytes, info.Deltas)
	}
	if info.PinnedDeltas != info.DeltaFiles || info.BlockFiles != info.Blocks+info.PinnedDeltas {
		t.Errorf("inspect: %d block files, %d deltas, for %d pinned bases and %d pinned deltas",
			info.BlockFiles, info.DeltaFiles, info.Blocks, info.PinnedDeltas)
	}

	// Pointed at one mesh node's checkpoint, the view reports the
	// partition, the node's shard and the wave it was saved at.
	mesh := filepath.Join(t.TempDir(), "ckpt-w00000004-node-001")
	if err := SaveShard(mesh, initWorker(t, g, 3, 1, ra.KernelScalar), 4, 3); err != nil {
		t.Fatal(err)
	}
	if info, err = InspectDir(mesh); err != nil {
		t.Fatal(err)
	}
	if !info.MeshNode() || info.Size != g.Size() || info.Shards != 3 || info.Blocks != 1 || info.Shard != 1 ||
		info.Group != 1 || info.Wave != 4 || info.Waves != 3 || info.BlockFiles != 1 || info.SpillBytes == 0 || info.DeltaFiles != 0 {
		t.Errorf("inspect mesh store: %+v", info)
	}

	// A one-node mesh's store holds every shard of its partition, as a
	// one-block out-of-core store does; the wave still marks it.
	solo := filepath.Join(t.TempDir(), "ckpt-w00000002-node-000")
	if err := SaveShard(solo, initWorker(t, g, 1, 0, ra.KernelScalar), 2, 1); err != nil {
		t.Fatal(err)
	}
	if info, err = InspectDir(solo); err != nil {
		t.Fatal(err)
	}
	if !info.MeshNode() || info.Shards != 1 || info.Blocks != 1 || info.Shard != 0 || info.Wave != 2 || info.Waves != 1 {
		t.Errorf("inspect one-node mesh store: %+v", info)
	}
	if err := SaveShard(solo, initWorker(t, g, 1, 0, ra.KernelScalar), 0, 0); err == nil {
		t.Error("a shard store saved at wave 0, which would read as out of core")
	}

	one := t.TempDir()
	e = Engine{MemLimit: 1 << 30, BlockLen: g.Size(), Dir: one, StopAfterWaves: 2}
	if _, _, err := e.SolveDetailed(g); !errors.Is(err, ra.ErrPaused) {
		t.Fatalf("one-block pause run: %v", err)
	}
	if info, err = InspectDir(one); err != nil {
		t.Fatal(err)
	}
	if info.MeshNode() || !info.HasManifest || info.Blocks != 1 || info.Shards != 1 {
		t.Errorf("one-block out-of-core store reads as a mesh node's: %+v", info)
	}
}

// TestAutoBlockLen pins the auto-sizing contract: multiples of 64 within
// the clamps, and small enough that any rung splits into several blocks.
func TestAutoBlockLen(t *testing.T) {
	for _, tc := range []struct{ size, want uint64 }{
		{1, 64},
		{64, 64},
		{2048, 64},
		{19683, 640},
		{705432, 22080},
		{1 << 30, 1 << 16},
	} {
		if got := autoBlockLen(tc.size); got != tc.want {
			t.Errorf("autoBlockLen(%d) = %d, want %d", tc.size, got, tc.want)
		}
	}
}

// TestOutOfCoreSchedulePinned pins the out-of-core visit order through
// its counters. Every counter below follows from the order in which a
// capped solve visits, begins, spills and reloads its blocks, so a driver
// change that keeps the database but moves the schedule fails here. The
// counters are the same with write-behind spilling and prefetch as with
// synchronous, demand-paged spilling. written also follows from which
// re-spills write a delta and which compact: with deltas it fell from
// 5,224,321 and 6,570,339 B, when every spill wrote a full image.
func TestOutOfCoreSchedulePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("solves awari-10 twice per kernel")
	}
	g := awariSlice(t, 10)
	type pin struct {
		kern                       ra.Kernel
		blocks, waves              int
		spilled, reloaded, written uint64
	}
	for _, want := range []pin{
		{ra.KernelSWAR, 32, 44, 989, 958, 1_957_404},
		{ra.KernelScalar, 32, 44, 989, 958, 2_685_090},
	} {
		ic, err := ra.InCoreStateBytes(g, want.kern)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []Engine{
			{MemLimit: ic / 4, Kernel: want.kern},
			{MemLimit: ic / 4, Kernel: want.kern, Writeback: -1, NoPrefetch: true},
		} {
			e.Dir = t.TempDir()
			label := fmt.Sprintf("%s %v (writeback %d)", g.Name(), want.kern, e.Writeback)
			r, st, err := e.SolveDetailed(g)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := pin{want.kern, st.Blocks, r.Waves, st.Spilled, st.Reloaded, st.SpillBytesWritten}
			if got != want {
				t.Errorf("%s: blocks %d, waves %d, spilled %d, reloaded %d, written %d B; pinned %d, %d, %d, %d, %d B",
					label, got.blocks, got.waves, got.spilled, got.reloaded, got.written,
					want.blocks, want.waves, want.spilled, want.reloaded, want.written)
			}
		}
	}
}
