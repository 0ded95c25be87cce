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

// FuzzManifestDecode drives arbitrary bytes through the manifest decoder.
// The contract under fuzz:
//
//   - decode never panics and never allocates past what the image can
//     hold; every rejection is a typed *CorruptSpillError;
//   - anything that decodes re-encodes to exactly the input.
//
// Each input is also tried with its last eight bytes replaced by the
// right checksum, so mutations reach the checks behind the CRC. The seeds
// are version 4 images — an out-of-core store of each kernel and a TCP-
// mesh node's one-shard store — and one image each of versions 2 and 3,
// which must be refused. They are hand-sized: the minimiser stalls on
// kilobyte seeds.
func FuzzManifestDecode(f *testing.F) {
	reseal := func(data []byte) []byte {
		body := data[:len(data)-8]
		return binary.LittleEndian.AppendUint64(slices.Clone(body), crc64.Checksum(body, db.CRC64Table))
	}
	scalar := &manifest{
		size: 100, kernel: ra.KernelScalar, shards: 2, group: 64, waves: 3,
		counters: SpillCounters{Spilled: 4, Reloaded: 2, SpillBytesWritten: 900, SpillBytesRead: 450, Checkpoints: 1},
		blocks: []manifestBlock{
			{shard: 0, gen: 2, stats: ra.WorkerStats{Positions: 64, InitFinal: 5}, queue: []uint64{1, 7}, next: []uint64{9}},
			{shard: 1, gen: 1, stats: ra.WorkerStats{Positions: 36}, pending: []ra.UpdateRun{{Base: 70, Count: 3, Value: 2}}},
		},
	}
	swar := &manifest{
		size: 40, kernel: ra.KernelSWAR, shards: 1, group: 64, waves: 1,
		blocks: []manifestBlock{{shard: 0, gen: 5, stats: ra.WorkerStats{Positions: 40, Finalized: 6}, next: []uint64{3}}},
	}
	mesh := &manifest{
		size: 100, kernel: ra.KernelScalar, shards: 3, group: 1, waves: 4, wave: 6,
		blocks: []manifestBlock{{shard: 2, gen: 1, stats: ra.WorkerStats{Positions: 33, Expanded: 8}, queue: []uint64{4}}},
	}
	for _, mf := range []*manifest{scalar, swar, mesh} {
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
