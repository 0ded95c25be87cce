package remote

import (
	"bufio"
	"bytes"
	"testing"

	"retrograde/internal/ra"
)

// overflowBatchFrame is a 17-byte batch frame whose count, 429,496,730,
// times the 10-byte update size wraps 32 bits to exactly the 4 bytes that
// follow it. A decoder that checks the size in 32 bits allocates ~6.9 GB
// of updates for it and then reads past the body.
var overflowBatchFrame = []byte{13, 0, 0, 0, frameBatch, 1, 0, 0, 0, 0x9a, 0x99, 0x99, 0x19, 0, 0, 0, 0}

// FuzzMeshFrame throws arbitrary bytes at the mesh frame decoder, which
// reads straight off peer sockets: any input must either fail or decode
// without panicking, and every frame it accepts must re-encode to exactly
// the bytes it was read from.
func FuzzMeshFrame(f *testing.F) {
	f.Add(encodeBatch(7, []ra.Update{{Target: 42, Value: 3}, {Target: 1 << 40, Value: 65534}}))
	f.Add(append(encodeCtl(frameEOW, 9, 0, 0), encodeCtl(frameDone, 3, 0, 123456789)...))
	f.Add(encodeCtl(frameGo, 5, ra.PhaseLoops, 0))
	f.Add(overflowBatchFrame)
	f.Add([]byte{5, 0, 0, 0, byte(ra.MsgToken), 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for off := 0; ; {
			ev, err := readFrame(r)
			if err != nil {
				return
			}
			again := encodeCtl(ev.kind, ev.wave, ev.phase, ev.work)
			if ev.kind == frameBatch {
				again = encodeBatch(ev.wave, ev.updates)
			}
			if off+len(again) > len(data) || !bytes.Equal(again, data[off:off+len(again)]) {
				t.Fatalf("frame at offset %d of %x re-encodes as %x", off, data, again)
			}
			off += len(again)
		}
	})
}
