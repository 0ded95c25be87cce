package oocore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"slices"
	"testing"

	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// FuzzSpillRoundtrip drives arbitrary bytes through the spill-block
// decoder. The contract under fuzz:
//
//   - decode never panics; every rejection is a typed *CorruptSpillError
//     (truncated files, garbage, bit rot — all of it);
//   - anything that decodes re-encodes and decodes again to bit-identical
//     streams and an identical file image (the codec choice is
//     deterministic, so spill → load → spill is a fixed point).
//
// The checked-in corpus holds version 2 images of both kernels and one
// version 1 image (v1-swar), which must be refused.
func FuzzSpillRoundtrip(f *testing.F) {
	seed := func(block int, kern ra.Kernel, vals, meta []game.Value) {
		enc, err := encodeSpill(nil, block, kern, vals, meta)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		if len(enc) > 12 {
			f.Add(enc[:len(enc)-9]) // truncated tail
			flipped := append([]byte(nil), enc...)
			flipped[12] ^= 0x81
			f.Add(flipped) // corrupt header
		}
	}
	seed(0, ra.KernelScalar, nil, nil)
	var vals, meta []game.Value
	for i := 0; i < 300; i++ {
		vals = append(vals, game.Value(i*2654435761%65536))
		meta = append(meta, game.Value(i%31))
	}
	seed(3, ra.KernelScalar, vals, meta)
	for i := range vals {
		vals[i] = game.Value(i%11 | i/37%16<<4) // value | final<<4 | counter<<5
	}
	seed(7, ra.KernelSWAR, vals, nil)
	f.Add([]byte(spillMagic))
	f.Add([]byte("not a spill block at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		block, kern, dv, dm, err := decodeSpill("fuzz", data, nil, nil)
		if err != nil {
			var ce *CorruptSpillError
			if !errors.As(err, &ce) {
				t.Fatalf("decode rejected input with untyped error %T: %v", err, err)
			}
			return
		}
		enc, err := encodeSpill(nil, block, kern, dv, dm)
		if err != nil {
			t.Fatalf("re-encoding decoded streams failed: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("spill image is not a re-encode fixed point: %d vs %d bytes", len(enc), len(data))
		}
		_, _, rv, rm, err := decodeSpill("fuzz2", enc, nil, nil)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if !slices.Equal(rv, dv) || !slices.Equal(rm, dm) {
			t.Fatal("roundtrip differs")
		}
	})
}

// FuzzDeltaDecode drives arbitrary bytes through the delta decoder and,
// when they decode, through the patch against a base of the shape the
// delta names. The contract under fuzz:
//
//   - decode and patch never panic; every rejection is a typed
//     *CorruptSpillError — truncation, bad framing or checksum, an index
//     that is unsorted, overlapping or out of range, a SWAR symbol above
//     0xFF, a delta paired with a base it was not written against;
//   - anything that decodes round-trips through encode, and patches the
//     base it names at exactly the positions its index lists.
//
// Each input is also tried with its last eight bytes replaced by the
// right checksum, so mutations reach the checks behind the CRC.
func FuzzDeltaDecode(f *testing.F) {
	for _, scalar := range []bool{false, true} {
		enc, err := encodeDelta(nil, testDelta(scalar))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-9])
		unsorted := *testDelta(scalar)
		unsorted.runs = slices.Clone(unsorted.runs)
		unsorted.runs[0], unsorted.runs[1] = unsorted.runs[1], unsorted.runs[0]
		if enc, err = encodeDelta(nil, &unsorted); err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(deltaMagic))
	f.Add([]byte("not a delta at all"))

	var ce *CorruptSpillError
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 8 {
			inputs = append(inputs, reseal(slices.Clone(data)))
		}
		for _, in := range inputs {
			var d deltaImage
			if err := decodeDelta("fuzz", in, &d); err != nil {
				if !errors.As(err, &ce) {
					t.Fatalf("decode rejected input with untyped error %T: %v", err, err)
				}
				continue
			}
			// The stream codecs read payloads their encoder would not
			// pick, so the first re-encode may differ; it must decode to
			// the same delta and be a fixed point from then on.
			out, err := encodeDelta(nil, &d)
			if err != nil {
				t.Fatalf("re-encoding a decoded delta failed: %v", err)
			}
			var again deltaImage
			if err := decodeDelta("re-encoded", out, &again); err != nil {
				t.Fatalf("re-decoding failed: %v", err)
			}
			if again.block != d.block || again.kern != d.kern || again.count != d.count || again.baseGen != d.baseGen || again.baseCRC != d.baseCRC ||
				!slices.Equal(again.runs, d.runs) || !slices.Equal(again.vals, d.vals) || !slices.Equal(again.meta, d.meta) {
				t.Fatal("delta roundtrip differs")
			}
			if fixed, err := encodeDelta(nil, &again); err != nil || !bytes.Equal(fixed, out) {
				t.Fatalf("re-encoded delta is not a fixed point (err %v)", err)
			}
			vals := make([]game.Value, d.count)
			var meta []game.Value
			if d.kern == ra.KernelScalar {
				meta = make([]game.Value, d.count)
			}
			if err := applyDelta("fuzz", &d, d.block, d.kern, d.baseGen, d.baseCRC^1, vals, meta); !errors.As(err, &ce) {
				t.Fatalf("patch against another base image returned %v", err)
			}
			for i := range vals {
				vals[i] = 0xFFFF
			}
			if err := applyDelta("fuzz", &d, d.block, d.kern, d.baseGen, d.baseCRC, vals, meta); err != nil {
				t.Fatalf("patch against the base it names: %v", err)
			}
			if got := gatherRuns(nil, vals, d.runs); !slices.Equal(got, d.vals) {
				t.Fatal("patch did not land the delta's symbols at its index")
			}
			untouched := 0
			for _, v := range vals {
				if v == 0xFFFF {
					untouched++
				}
			}
			if untouched < d.count-len(d.vals) {
				t.Fatalf("patch wrote %d positions outside its index", d.count-len(d.vals)-untouched)
			}
		}
	})
}

// FuzzManifestDecode drives arbitrary bytes through the manifest decoder.
// The contract under fuzz:
//
//   - decode never panics and never allocates past what the image can
//     hold; every rejection is a typed *CorruptSpillError;
//   - anything that decodes re-encodes to exactly the input.
//
// Each input is also tried with its last eight bytes replaced by the
// right checksum, so mutations reach the checks behind the CRC. The seeds
// are version 5 images — an out-of-core store of each kernel, one
// pinning deltas, and a TCP-mesh node's one-shard store — a version 4
// image, which is still read, and one image each of versions 2 and 3,
// which must be refused. They are hand-sized: the minimiser stalls on
// kilobyte seeds.
func FuzzManifestDecode(f *testing.F) {
	reseal := func(data []byte) []byte {
		body := data[:len(data)-8]
		return binary.LittleEndian.AppendUint64(slices.Clone(body), crc64.Checksum(body, db.CRC64Table))
	}
	scalar := &manifest{
		size: 100, kernel: ra.KernelScalar, shards: 2, group: 64, waves: 3,
		counters: SpillCounters{Spilled: 4, Deltas: 2, Compactions: 1, Reloaded: 2, SpillBytesWritten: 900, SpillBytesRead: 450, Checkpoints: 1},
		blocks: []manifestBlock{
			{shard: 0, base: 2, delta: 5, stats: ra.WorkerStats{Positions: 64, InitFinal: 5}, queue: []uint64{1, 7}, next: []uint64{9}},
			{shard: 1, base: 1, stats: ra.WorkerStats{Positions: 36}, pending: []ra.UpdateRun{{Base: 70, Count: 3, Value: 2}}},
		},
	}
	swar := &manifest{
		size: 40, kernel: ra.KernelSWAR, shards: 1, group: 64, waves: 1,
		blocks: []manifestBlock{{shard: 0, base: 5, stats: ra.WorkerStats{Positions: 40, Finalized: 6}, next: []uint64{3}}},
	}
	mesh := &manifest{
		size: 100, kernel: ra.KernelScalar, shards: 3, group: 1, waves: 4, wave: 6,
		blocks: []manifestBlock{{shard: 2, base: 1, stats: ra.WorkerStats{Positions: 33, Expanded: 8}, queue: []uint64{4}}},
	}
	v4 := *swar
	v4.version = manifestV4
	for _, mf := range []*manifest{scalar, swar, mesh, &v4} {
		enc := encodeManifest(mf)
		f.Add(enc)
		f.Add(enc[:len(enc)-9]) // truncated tail
	}
	// A plausible entry count for a huge size, far beyond what the image
	// holds, under a valid checksum: must be refused before allocating.
	bomb := encodeManifest(scalar)
	binary.LittleEndian.PutUint64(bomb[8:], 1<<40)
	binary.LittleEndian.PutUint32(bomb[17:], 1<<31)
	binary.LittleEndian.PutUint32(bomb[29:], 1<<31)
	f.Add(reseal(bomb))
	var ce *CorruptSpillError
	for _, version := range []uint32{2, 3} {
		old := encodeManifestOld(scalar, version)
		if _, err := decodeManifest("old", old); !errors.As(err, &ce) {
			f.Fatalf("version %d seed decoded (err %v)", version, err)
		}
		f.Add(old)
	}
	f.Add([]byte(manifestMagic))
	f.Add([]byte("not a manifest at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 8 {
			inputs = append(inputs, reseal(data))
		}
		for _, in := range inputs {
			mf, err := decodeManifest("fuzz", in)
			if err != nil {
				if !errors.As(err, &ce) {
					t.Fatalf("decode rejected input with untyped error %T: %v", err, err)
				}
				continue
			}
			if out := encodeManifest(mf); !bytes.Equal(out, in) {
				t.Fatalf("accepted manifest is not a re-encode fixed point (%d bytes in, %d out)", len(in), len(out))
			}
		}
	})
}
