package oocore

import (
	"bytes"
	"errors"
	"slices"
	"testing"

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
		enc, err := encodeSpill(nil, block, kern, slices.Clone(vals), slices.Clone(meta))
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
		vals[i] = game.Value(i % 11 & 0x0F)
		meta[i] = game.Value(i / 37 % 16)
	}
	seed(7, ra.KernelSWAR, vals, meta)
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
		enc, err := encodeSpill(nil, block, kern, slices.Clone(dv), slices.Clone(dm))
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
		for i := range dv {
			if rv[i] != dv[i] || rm[i] != dm[i] {
				t.Fatalf("roundtrip differs at %d", i)
			}
		}
	})
}
