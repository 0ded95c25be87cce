package remote

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"
	"time"

	"retrograde/internal/game"
	"retrograde/internal/graphgame"
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
	f.Add(encodeCtl(frameFail, 6, 0, 2))
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

// FuzzMeshEngineOnGraph is the TCP mesh's differential oracle: the mesh
// on one to four nodes, with its default batching and with three-update
// frames (so a wave's updates cross in many frames), must solve a random
// graph to the reference solver's values, loop set and wave count.
// Graphs stay below about 600 positions so each loopback solve is quick.
func FuzzMeshEngineOnGraph(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(7), uint8(7), true)
	f.Add(uint64(2), uint16(599), uint8(3), uint8(7), true)
	f.Add(uint64(3), uint16(500), uint8(15), uint8(4), false)
	f.Add(uint64(4), uint16(400), uint8(0), uint8(2), true)
	f.Add(uint64(5), uint16(560), uint8(200), uint8(11), true)
	f.Add(uint64(6), uint16(450), uint8(40), uint8(3), false)
	f.Add(uint64(7), uint16(1), uint8(7), uint8(7), true)
	f.Add(uint64(8), uint16(129), uint8(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, neg, maxInternal uint8, cutoff bool) {
		s := graphgame.Shape{Size: 1 + int(size)%600, Neg: game.Value(neg), MaxInternal: int(maxInternal) % 12, Cutoff: cutoff}
		g := graphgame.New(seed, s)
		want := graphgame.Solve(g)
		for p := 1; p <= 4; p++ {
			for _, batch := range []int{0, 3} {
				e := Engine{Workers: p, Batch: batch}
				got, err := solveWatchdog(t, e, g, 30*time.Second)
				if err != nil {
					t.Fatalf("%s %s: %v", g.Name(), e.Name(), err)
				}
				matchesReference(t, fmt.Sprintf("%s %s batch %d", g.Name(), e.Name(), batch), want, got)
			}
		}
	})
}
