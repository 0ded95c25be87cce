package zdb

import (
	"fmt"

	"retrograde/internal/game"
)

// Exported stream-codec entry points. The v2 table format (zdb.go) drives
// the per-block codecs through its own directory; the out-of-core engine
// (internal/oocore) re-uses the same codecs for its spill blocks, where
// the codec id and parameter live in the spill-block header instead.

// EncodeStream encodes vals with the smallest codec and appends the
// payload to dst, returning the grown dst plus the codec id and parameter
// to pass back to DecodeStream. bits is the stream's full entry width
// (the raw-codec fallback width); every value must fit in it.
func EncodeStream(dst []byte, vals []game.Value, bits int) (out []byte, codec, param uint8, err error) {
	if len(vals) == 0 {
		return dst, codecRaw, 0, nil
	}
	if bits < 1 || bits > 16 {
		return nil, 0, 0, fmt.Errorf("zdb: stream width %d outside [1, 16]", bits)
	}
	return encodeBlock(dst, vals, bits)
}

// DecodeStream decodes an EncodeStream payload of n values into out[:n].
// Truncated or malformed payloads return an error, never panic.
func DecodeStream(src []byte, n, bits int, codec, param uint8, out []game.Value) error {
	if n == 0 {
		return nil
	}
	if bits < 1 || bits > 16 {
		return fmt.Errorf("zdb: stream width %d outside [1, 16]", bits)
	}
	if codec >= numCodecs {
		return fmt.Errorf("zdb: unknown stream codec %d", codec)
	}
	return decodeBlock(src, n, bits, codec, param, out)
}

// CodecName renders a stream codec id for stats and error messages.
func CodecName(codec uint8) string { return codecName(codec) }
