package ra

import (
	"bytes"
	"sort"
	"testing"
)

// FuzzApplyWord differentially tests the branchless 8-lane SWAR apply
// against eight per-lane applies on the same state: identical lane bytes,
// identical stats, identical finalization sets — the word-level half of
// the kernel-parity guarantee, over arbitrary lane states instead of the
// reachable ones the solver tests cover — plus the loop-flag half of the
// state contract: newly final lanes store counter 0.
//
// Inputs are normalized to the kernel's precondition: a live lane always
// has a non-zero successor counter (a zero counter on a live lane is the
// invariant violation both paths panic on, checked separately below).
func FuzzApplyWord(f *testing.F) {
	f.Add([]byte{0x15, 0x20, 0x31, 0x7F, 0x80, 0xFF, 0x10, 0x2E, 0x05, 0x00})
	f.Add([]byte{0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0F, 0x03})
	f.Add([]byte{0x71, 0x62, 0x53, 0x44, 0x35, 0x26, 0x17, 0x88, 0x07, 0x01})
	// Cutoff at value 4 on lanes with counters 1..7 outstanding, beside a
	// loop-flagged final lane (0xA3: final, counter 2).
	f.Add([]byte{0x31, 0x21, 0x11, 0x71, 0xA3, 0x80, 0x32, 0x45, 0x04, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		var lanes [lanesPerWord]byte
		for i := range lanes {
			b := data[i]
			if b&laneFinalBit == 0 && b&laneCntField == 0 {
				b |= laneCntOne // live lanes must have updates outstanding
			}
			lanes[i] = b
		}
		mv := data[8] & laneValueMask
		finAt := -1
		if data[9]&1 != 0 {
			finAt = int(data[9] >> 1 & laneValueMask)
		}

		word := &Worker{lane: append([]byte(nil), lanes[:]...), finAt: finAt}
		lane := &Worker{lane: append([]byte(nil), lanes[:]...), finAt: finAt}

		word.applyWord(0, mv)
		for i := uint64(0); i < lanesPerWord; i++ {
			lane.applyLane(i, mv)
		}

		if !bytes.Equal(word.lane, lane.lane) {
			t.Fatalf("lane state diverged:\n in:   %x mv=%#x finAt=%d\n word: %x\n lane: %x",
				lanes, mv, finAt, word.lane, lane.lane)
		}
		// A final counter is the loop flag: a lane the update finalized
		// stores counter 0, and an already final lane keeps its byte.
		for i, in := range lanes {
			out := word.lane[i]
			if in&laneFinalBit != 0 && out != in {
				t.Fatalf("final lane %d changed: %#02x -> %#02x", i, in, out)
			}
			if in&laneFinalBit == 0 && out&laneFinalBit != 0 && out&laneCntField != 0 {
				t.Fatalf("lane %d finalized with counter %d: %#02x -> %#02x (mv=%#x finAt=%d)",
					i, out&laneCntField>>laneCntShift, in, out, mv, finAt)
			}
		}
		if word.Stats != lane.Stats {
			t.Fatalf("stats diverged: word %+v, lane %+v (in %x mv=%#x finAt=%d)",
				word.Stats, lane.Stats, lanes, mv, finAt)
		}
		sort.Slice(word.next, func(i, j int) bool { return word.next[i] < word.next[j] })
		sort.Slice(lane.next, func(i, j int) bool { return lane.next[i] < lane.next[j] })
		if len(word.next) != len(lane.next) {
			t.Fatalf("finalized sets diverged: word %v, lane %v", word.next, lane.next)
		}
		for i := range word.next {
			if word.next[i] != lane.next[i] {
				t.Fatalf("finalized sets diverged: word %v, lane %v", word.next, lane.next)
			}
		}
	})
}

// Both kernels must also agree on the invariant violation itself: a live
// lane with an exhausted counter panics in the per-lane path and in the
// word path alike.
func TestApplyWordUnderflowPanicsLikeApplyLane(t *testing.T) {
	for _, kernel := range []string{"word", "lane"} {
		w := &Worker{lane: make([]byte, lanesPerWord), finAt: -1, part: Cyclic(lanesPerWord, 1)}
		w.lane[3] = 0x05 // live, counter 0: one update too many
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s kernel did not panic on counter underflow", kernel)
				}
			}()
			if kernel == "word" {
				w.applyWord(0, 2)
			} else {
				w.applyLane(3, 2)
			}
		}()
	}
}
