package oocore

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/ra"
	"retrograde/internal/ttt"
)

// TestChangedRuns: the change record's runs are exactly the marked
// positions, as maximal increasing runs, whatever the marks' shapes —
// single bits, runs across word boundaries, whole words, the last
// position.
func TestChangedRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []uint64{1, 63, 64, 65, 200, 1000} {
		for range 50 {
			rec := make([]uint64, (n+63)/64)
			want := make([]bool, n)
			for range rng.IntN(8) {
				lo := rng.Uint64N(n)
				k := 1 + rng.Uint64N(min(n-lo, 150))
				markChanged(rec, lo, k)
				for i := lo; i < lo+k; i++ {
					want[i] = true
				}
			}
			got := make([]bool, n)
			end := -1
			for _, r := range appendChangedRuns(nil, rec) {
				if r.n == 0 || int(r.start) <= end {
					t.Fatalf("n=%d: run %+v is empty or does not start after %d", n, r, end)
				}
				for i := r.start; i < r.start+r.n; i++ {
					got[i] = true
				}
				end = int(r.start + r.n)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d: runs cover %v, marked %v", n, got, want)
			}
		}
	}
}

// testDelta is a valid delta of a 200-position block: scalar when meta
// is wanted, SWAR otherwise.
func testDelta(scalar bool) *deltaImage {
	d := &deltaImage{block: 3, kern: ra.KernelSWAR, count: 200, baseGen: 4, baseCRC: 0xfeedface,
		runs: []deltaRun{{0, 2}, {7, 1}, {64, 40}, {199, 1}}}
	for i := range 44 {
		d.vals = append(d.vals, game.Value(i%5|i%3<<5))
	}
	if scalar {
		d.kern = ra.KernelScalar
		for i := range d.vals {
			d.vals[i] = game.Value(i * 977)
			d.meta = append(d.meta, game.Value(i%4))
		}
	}
	return d
}

// reseal rewrites an image's CRC-64 tail over its body.
func reseal(data []byte) []byte {
	body := len(data) - 8
	binary.LittleEndian.PutUint64(data[body:], crc64.Checksum(data[:body], db.CRC64Table))
	return data
}

// withValues replaces a delta image's values payload and codec, keeping
// everything else, under a valid checksum.
func withValues(enc []byte, codec, param uint8, payload []byte) []byte {
	le := binary.LittleEndian
	indexLen, valsLen := int(le.Uint32(enc[44:])), int(le.Uint32(enc[48:]))
	off := deltaHeaderLen + indexLen
	out := append(slices.Clone(enc[:off]), payload...)
	out = append(out, enc[off+valsLen:len(enc)-8]...)
	out[40], out[41] = codec, param
	le.PutUint32(out[48:], uint32(len(payload)))
	return reseal(append(out, make([]byte, 8)...))
}

// TestDeltaImage: a delta round-trips under both kernels and patches the
// base it names; every malformed delta — truncated, an index that is
// unsorted, overlapping, touching, empty or out of range, a bad
// checksum, a SWAR symbol above 0xFF — and every pairing with a base it
// was not written against is a *CorruptSpillError, never a panic.
func TestDeltaImage(t *testing.T) {
	for _, scalar := range []bool{false, true} {
		d := testDelta(scalar)
		enc, err := encodeDelta(nil, d)
		if err != nil {
			t.Fatal(err)
		}
		var got deltaImage
		if err := decodeDelta("ok", enc, &got); err != nil {
			t.Fatalf("scalar=%v: %v", scalar, err)
		}
		if got.block != d.block || got.kern != d.kern || got.count != d.count || got.baseGen != d.baseGen ||
			got.baseCRC != d.baseCRC || !slices.Equal(got.runs, d.runs) || !slices.Equal(got.vals, d.vals) || !slices.Equal(got.meta, d.meta) {
			t.Fatalf("scalar=%v: delta does not round-trip: %+v", scalar, got)
		}
		vals, meta := make([]game.Value, d.count), []game.Value(nil)
		if scalar {
			meta = make([]game.Value, d.count)
		}
		if err := applyDelta("ok", &got, d.block, d.kern, d.baseGen, d.baseCRC, vals, meta); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gatherRuns(nil, vals, d.runs), d.vals) || scalar && !slices.Equal(gatherRuns(nil, meta, d.runs), d.meta) {
			t.Fatalf("scalar=%v: patch did not land the delta's symbols", scalar)
		}
		if vals[2] != 0 || vals[63] != 0 {
			t.Fatalf("scalar=%v: patch wrote outside the index", scalar)
		}

		var ce *CorruptSpillError
		wantCorrupt := func(label string, data []byte, reason string) {
			t.Helper()
			var d deltaImage
			err := decodeDelta(label, data, &d)
			if !errors.As(err, &ce) || !strings.Contains(err.Error(), reason) {
				t.Errorf("scalar=%v %s: err %v, want a CorruptSpillError saying %q", scalar, label, err, reason)
			}
		}
		for _, cut := range []int{0, 10, deltaHeaderLen + 7, len(enc) - 1} {
			wantCorrupt("truncated", enc[:cut], "")
		}
		flipped := slices.Clone(enc)
		flipped[deltaHeaderLen+1] ^= 0x10
		wantCorrupt("flipped", flipped, "checksum mismatch")
		for _, bad := range []struct {
			label  string
			runs   []deltaRun
			reason string
		}{
			{"unsorted", []deltaRun{{64, 40}, {0, 2}, {7, 1}, {199, 1}}, "unsorted"},
			{"overlapping", []deltaRun{{0, 8}, {7, 1}, {64, 34}, {199, 1}}, "overlaps"},
			{"touching", []deltaRun{{0, 2}, {2, 1}, {64, 40}, {199, 1}}, "touches"},
			{"out of range", []deltaRun{{0, 2}, {7, 1}, {64, 40}, {199, 2}}, "outside"},
			{"empty run", []deltaRun{{0, 3}, {7, 0}, {64, 40}, {199, 1}}, "empty"},
		} {
			e := *d
			e.runs = bad.runs
			data, err := encodeDelta(nil, &e)
			if bad.label == "out of range" {
				// The last run ends one past the block, so the streams
				// carry one more symbol.
				e.vals = append(slices.Clone(e.vals), 0)
				if scalar {
					e.meta = append(slices.Clone(e.meta), 0)
				}
				data, err = encodeDelta(nil, &e)
			}
			if err != nil {
				t.Fatalf("%s: %v", bad.label, err)
			}
			wantCorrupt(bad.label, data, bad.reason)
		}
		if !scalar {
			// A narrow stream of width 0 whose base is 0x1FF decodes to
			// symbols wider than a lane byte.
			wantCorrupt("wide symbol", withValues(enc, 1, 0, []byte{0xFF, 0x01}), "lane byte")
		}

		// Pairings the delta was not written against.
		for _, p := range []struct {
			label            string
			block            int
			kern             ra.Kernel
			baseGen, baseCRC uint64
			count            int
		}{
			{"other block", d.block + 1, d.kern, d.baseGen, d.baseCRC, d.count},
			{"other kernel", d.block, ra.KernelScalar + ra.KernelSWAR - d.kern, d.baseGen, d.baseCRC, d.count},
			{"other generation", d.block, d.kern, d.baseGen + 1, d.baseCRC, d.count},
			{"other image", d.block, d.kern, d.baseGen, d.baseCRC ^ 1, d.count},
			{"other length", d.block, d.kern, d.baseGen, d.baseCRC, d.count - 1},
		} {
			vals := make([]game.Value, p.count)
			if err := applyDelta(p.label, &got, p.block, p.kern, p.baseGen, p.baseCRC, vals, meta); !errors.As(err, &ce) {
				t.Errorf("scalar=%v %s: err %v, want a CorruptSpillError", scalar, p.label, err)
			}
		}
	}
}

// deltaStore pauses a capped tic-tac-toe solve after waves waves and
// returns its directory and engine; the store pins deltas.
func deltaStore(t *testing.T, waves int) (string, Engine) {
	t.Helper()
	g := ttt.New()
	ic, _ := ra.InCoreStateBytes(g, ra.KernelAuto)
	dir := t.TempDir()
	e := Engine{MemLimit: ic / 4, Dir: dir, StopAfterWaves: waves}
	if _, _, err := e.SolveDetailed(g); !errors.Is(err, ra.ErrPaused) {
		t.Fatalf("pause run: %v", err)
	}
	e.StopAfterWaves = 0
	return dir, e
}

// TestDeltaWrongBase: a store whose pinned delta is paired with a base
// image it was not written against — the same block and generation,
// re-encoded with one symbol changed, under a valid checksum — fails the
// resume with a CorruptSpillError naming the delta, never patches it.
func TestDeltaWrongBase(t *testing.T) {
	dir, e := deltaStore(t, 4)
	mf, err := readManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(mf.blocks, func(mb manifestBlock) bool { return mb.delta != 0 })
	if i < 0 {
		t.Fatal("paused store pins no delta")
	}
	mb := mf.blocks[i]
	s := &spillStore{dir: dir}
	data, _, err := s.read(mb.shard, mb.base, false)
	if err != nil {
		t.Fatal(err)
	}
	blk, kern, vals, meta, err := decodeSpill("base", data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals[0] ^= 1
	other, err := encodeSpill(nil, blk, kern, vals, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(mb.shard, mb.base, false), other, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = e.SolveDetailed(ttt.New())
	var ce *CorruptSpillError
	if !errors.As(err, &ce) || ce.Path != s.path(mb.shard, mb.delta, true) || !strings.Contains(err.Error(), "paired with") {
		t.Fatalf("resume over a delta paired with the wrong base returned %v", err)
	}
}

// TestOutOfCoreDeltaCrashResume is the crash drill of the delta format:
// the solve dies at the first write — spill file or manifest — after
// its n-th delta has landed, and after its n-th compaction, so the store
// holds a delta or a new base that no manifest pins yet, and the
// manifest on disk pins the older base and delta those superseded. The
// resumed solve must be bit-identical, or restart clean where no
// manifest exists yet; pipelined and synchronous spilling both.
func TestOutOfCoreDeltaCrashResume(t *testing.T) {
	awari6 := awariSlice(t, 6)
	want, err := ra.Sequential{}.Solve(awari6)
	if err != nil {
		t.Fatal(err)
	}
	ic, _ := ra.InCoreStateBytes(awari6, ra.KernelAuto)
	for _, kind := range []spillKind{kindDelta, kindCompaction} {
		for _, sync := range []bool{false, true} {
			engine := func(dir string, failAt int) Engine {
				e := Engine{MemLimit: ic / 4, Dir: dir, CheckpointEvery: 2, failSpillAfter: failAt, failSpillKind: kind}
				if sync {
					e.Writeback, e.NoPrefetch = -1, true
				}
				return e
			}
			_, clean, err := engine(t.TempDir(), 0).SolveDetailed(awari6)
			if err != nil {
				t.Fatal(err)
			}
			total := clean.Deltas
			if kind == kindCompaction {
				total = clean.Compactions
			}
			if total < 4 {
				t.Fatalf("kind %d: a clean solve writes only %d of them; the drill needs more", kind, total)
			}
			crashes, resumes := 0, 0
			for _, n := range []uint64{1, 2, total / 2, total - 1} {
				dir := t.TempDir()
				_, _, err := engine(dir, int(n)).SolveDetailed(awari6)
				if !errors.Is(err, errSimulatedCrash) {
					t.Fatalf("kind %d sync=%v n=%d: crash run returned %v, want simulated crash", kind, sync, n, err)
				}
				crashes++
				info, err := InspectDir(dir)
				if err != nil {
					t.Fatalf("kind %d n=%d: store unreadable after crash: %v", kind, n, err)
				}
				got, st, err := engine(dir, 0).SolveDetailed(awari6)
				if err != nil {
					t.Fatalf("kind %d sync=%v n=%d: resume: %v", kind, sync, n, err)
				}
				if st.Resumed != info.HasManifest {
					t.Errorf("kind %d n=%d: resumed=%v with manifest present=%v", kind, n, st.Resumed, info.HasManifest)
				}
				if st.Resumed {
					resumes++
				}
				compareResults(t, "delta crash-resumed", want, got)
			}
			if resumes == 0 {
				t.Errorf("kind %d sync=%v: none of %d crashes left a manifest to resume", kind, sync, crashes)
			}
		}
	}
}

// TestResumeVersion4Store resumes the store a build before delta spills
// left: a tic-tac-toe solve paused after three waves, its manifest in
// version 4 pinning one full image per block (testdata/v4-ttt-paused).
// The resume must be bit-identical, and the checkpoints it writes pin
// deltas against those images.
func TestResumeVersion4Store(t *testing.T) {
	g := ttt.New()
	want, err := ra.Sequential{}.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join("testdata", "v4-ttt-paused")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mf, err := readManifest(filepath.Join(dir, ManifestName))
	if err != nil || mf.version != manifestV4 || mf.waves != 3 {
		t.Fatalf("fixture manifest: version %v, waves %v, err %v", mf.version, mf.waves, err)
	}
	ic, _ := ra.InCoreStateBytes(g, ra.KernelAuto)
	e := Engine{MemLimit: ic / 4, Dir: dir, StopAfterWaves: 2}
	if _, st, err := e.SolveDetailed(g); !errors.Is(err, ra.ErrPaused) || !st.Resumed || st.Deltas == 0 {
		t.Fatalf("resume of the version 4 store: resumed %v, %d deltas, err %v", st.Resumed, st.Deltas, err)
	}
	if info, err := InspectDir(dir); err != nil || info.PinnedDeltas == 0 {
		t.Fatalf("the version 4 store's next checkpoint pins no delta (%+v, %v)", info, err)
	}
	e.StopAfterWaves = 0
	got, _, err := e.SolveDetailed(g)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "version 4 store resumed", want, got)
}
