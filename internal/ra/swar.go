package ra

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"retrograde/internal/game"
)

// This file implements the bit-parallel (SWAR) in-core wave kernel: eight
// positions' analysis state packed one byte each into uint64 words, with
// the propagation primitives operating on whole words branchlessly. What
// is SWAR-specific is the state — the lane layout, applyLane, applyWord —
// not the generation: Init, ExpandRuns and ResolveLoops (worker.go) walk
// the same run generators under both kernels, so the kernels solve in
// about the same time and SWAR's gain is 1 byte of resident state per
// position instead of 4. The scalar uint32-per-position kernel remains the
// fallback for wide-valued games and the parity oracle; both kernels
// produce bit-identical databases (same values, same waves, same loop
// sets).
//
// Lane layout, one byte per position:
//
//	bits 0..3  value   (game.Value, <= 4 bits; "no value yet" stored as 0,
//	                    which is order-equivalent under the LaneSpec
//	                    contract — see game/lanes.go)
//	bits 4..6  counter (outstanding internal successors, <= 7)
//	bit     7  final (with a nonzero counter: loop-resolved, see worker.go)
//
// Eligibility: the game implements game.LaneGame, its LaneSpec holds
// (value-ordered, affine negamax, single finalizing value), its values fit
// 4 bits and its internal branching fits 3 bits. Awari rungs with up to 15
// stones and kalah rungs with up to 15 stones qualify; the WDL games
// (ttt, nim, chess endgames) use 16-bit values and stay scalar.

// Kernel selects the in-core wave kernel implementation.
type Kernel uint8

const (
	// KernelAuto picks the SWAR kernel when the game is eligible and the
	// scalar kernel otherwise. The default.
	KernelAuto Kernel = iota
	// KernelScalar forces the one-uint32-per-position kernel (the
	// rung13-scalar bench baseline and the parity oracle).
	KernelScalar
	// KernelSWAR forces the bit-parallel kernel; worker construction
	// fails for ineligible games instead of silently falling back.
	KernelSWAR
)

func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelScalar:
		return "scalar"
	case KernelSWAR:
		return "swar"
	}
	return fmt.Sprintf("Kernel(%d)", uint8(k))
}

// Config tunes the in-core engines (Sequential, Concurrent). The wire
// engines (Distributed, in either mode, and remote.Engine) take no Config:
// they run the auto kernel, which never touches their per-update message
// path, so the paper's traffic and wave numbers stay meaningful.
type Config struct {
	// Kernel selects the wave kernel; zero value is KernelAuto.
	Kernel Kernel
}

// Lane field layout (one byte per position).
const (
	laneValueBits      = 4
	laneValueMask byte = 0x0F
	laneCntShift       = 4
	laneCntField  byte = 0x70
	laneCntOne    byte = 1 << laneCntShift
	laneFinalBit  byte = 0x80
	laneMaxCnt         = 7
	lanesPerWord       = 8
	laneChunk          = 1024 // run-generator scratch bound (positions), either kernel
)

// Broadcast masks for the word-parallel kernels.
const (
	laneLo    uint64 = 0x0101010101010101 // 1 in every lane
	laneHi    uint64 = 0x8080808080808080 // final bit of every lane
	laneVal8  uint64 = 0x0F0F0F0F0F0F0F0F // value field of every lane
	laneCnt8  uint64 = 0x7070707070707070 // counter field of every lane
	laneCnt18 uint64 = 0x1010101010101010 // counter 1 in every lane
)

// LaneBytesPerPosition is the resident analysis-time state per owned
// position under the SWAR kernel: one byte (vs StateBytesPerPosition for
// the scalar kernel).
const LaneBytesPerPosition = 1

// BytesPerPosition returns the resident analysis-time state per owned
// position under resolved kernel k: LaneBytesPerPosition under SWAR,
// StateBytesPerPosition under scalar.
func (k Kernel) BytesPerPosition() uint64 {
	if k == KernelSWAR {
		return LaneBytesPerPosition
	}
	return StateBytesPerPosition
}

// UpdateRun is a run-length-encoded batch of updates: targets Base,
// Base+1, ..., Base+Count-1 all receive the same source value. The
// expansion loop emits runs under either kernel; the host-time engines
// (Sequential, Concurrent, out-of-core) move them between shards, and a
// wire node unrolls them into its per-update messages. A run of Count 1
// is an ordinary update. Runs never span a partition group boundary, so a run's targets
// are contiguous in the owner's local index space and the receiver can
// apply long runs a word at a time.
type UpdateRun struct {
	Base  uint64
	Count uint32
	Value game.Value
}

// LaneEligible reports whether g can run under the SWAR kernel, and the
// lane contract it declared.
func LaneEligible(g game.Game) (game.LaneSpec, bool) {
	lg, ok := g.(game.LaneGame)
	if !ok {
		return game.LaneSpec{}, false
	}
	spec, ok := lg.Lanes()
	if !ok {
		return spec, false
	}
	if g.ValueBits() > laneValueBits || spec.Neg > game.Value(laneValueMask) {
		return spec, false
	}
	if spec.MaxInternal > laneMaxCnt {
		return spec, false
	}
	if spec.FinalizeAt > int(spec.Neg) {
		return spec, false
	}
	return spec, true
}

// ResolveKernel maps a Kernel request onto the concrete kernel for g
// (KernelAuto picks SWAR when the game is eligible) without building a
// worker — the out-of-core engine needs the answer before it sizes
// blocks.
func ResolveKernel(g game.Game, k Kernel) (Kernel, error) {
	switch k {
	case KernelScalar:
		return KernelScalar, nil
	case KernelSWAR:
		if _, ok := LaneEligible(g); !ok {
			return 0, fmt.Errorf("ra: game %s is not SWAR-eligible (needs a LaneSpec with <=%d value bits and <=%d internal successors)", g.Name(), laneValueBits, laneMaxCnt)
		}
		return KernelSWAR, nil
	case KernelAuto:
		if _, ok := LaneEligible(g); ok {
			return KernelSWAR, nil
		}
		return KernelScalar, nil
	}
	return 0, fmt.Errorf("ra: unknown kernel %v", k)
}

// InCoreStateBytes returns the analysis-time working-set bytes a single
// in-core worker would hold for g under kernel k — the baseline an
// out-of-core memory cap is expressed against (and the quantity the
// paper's ">600 MByte on a uniprocessor" claim is about).
func InCoreStateBytes(g game.Game, k Kernel) (uint64, error) {
	k, err := ResolveKernel(g, k)
	if err != nil {
		return 0, err
	}
	return g.Size() * k.BytesPerPosition(), nil
}

// applyLane delivers one pre-negamaxed update (mv = Neg - successor
// value) to an owned position's lane. The hot inner step of the SWAR
// kernel's self-delivery and single-update paths.
func (w *Worker) applyLane(local uint64, mv byte) {
	w.Stats.UpdatesApplied++
	s := w.lane[local]
	if s&laneFinalBit != 0 {
		w.Stats.UpdatesStale++
		return
	}
	if s&laneCntField == 0 {
		panic(fmt.Sprintf("ra: worker %d position %d received more updates than successors", w.me, w.part.Global(w.me, local)))
	}
	v := s & laneValueMask
	if mv > v {
		v = mv
	}
	s = (s-laneCntOne)&^laneValueMask | v
	if s&laneCntField == 0 || int(v) == w.finAt {
		s = v | laneFinalBit // counter cleared: not a loop flag
		w.next = append(w.next, local)
		w.Stats.Finalized++
	}
	w.lane[local] = s
}

// ApplyRun delivers a run of same-valued updates to owned positions: a
// run never crosses a group boundary, so ownership is checked once and the
// targets are consecutive locals. Under the SWAR kernel long runs are
// applied a word (8 lanes) at a time with branchless max / counter-
// decrement / finalize-detect; short runs and ragged edges go through the
// per-lane path.
func (w *Worker) ApplyRun(r UpdateRun) {
	if w.part.Owner(r.Base) != w.me {
		panic(fmt.Sprintf("ra: worker %d received update run for %d owned by %d", w.me, r.Base, w.part.Owner(r.Base)))
	}
	local := w.part.Local(r.Base)
	count := uint64(r.Count)
	if w.lane == nil {
		for ; count > 0; count-- {
			w.applyState(local, r.Value)
			local++
		}
		return
	}
	mv := w.negv - byte(r.Value)
	// Ragged head up to word alignment, then full words, then the tail.
	for ; count > 0 && local%lanesPerWord != 0; count-- {
		w.applyLane(local, mv)
		local++
	}
	for ; count >= lanesPerWord; count -= lanesPerWord {
		w.applyWord(local, mv)
		local += lanesPerWord
	}
	for ; count > 0; count-- {
		w.applyLane(local, mv)
		local++
	}
}

// applyWord applies one update of pre-negamaxed value mv to each of the 8
// lanes of the word at local (word-aligned): per-lane max with mv,
// counter decrement, finalize on counter exhaustion or early cutoff
// (clearing the counter) — all without branching on individual lanes.
func (w *Worker) applyWord(local uint64, mv byte) {
	x := binary.LittleEndian.Uint64(w.lane[local:])
	fin := x & laneHi // final bit per lane
	w.Stats.UpdatesApplied += lanesPerWord
	stale := uint64(bits.OnesCount64(fin))
	w.Stats.UpdatesStale += stale
	if stale == lanesPerWord {
		return
	}
	finMask := fin | fin>>1 | fin>>2 | fin>>3 | fin>>4 | fin>>5 | fin>>6 | fin>>7 // 0xFF per final lane
	live := ^finMask
	// A live lane with an exhausted counter would underflow: the same
	// invariant violation the scalar kernel panics on.
	// Zero-lane test (fields are < 0x80, so lanes cannot borrow into each
	// other): (c | 0x80) - 1 keeps the high bit exactly when c != 0.
	cnt := x & laneCnt8
	cntZero := ^((cnt | laneHi) - laneLo) & laneHi // high bit per zero-counter lane
	if cntZero&^fin != 0 {
		bad := bits.TrailingZeros64(cntZero&^fin) / lanesPerWord
		panic(fmt.Sprintf("ra: worker %d position %d received more updates than successors", w.me, w.part.Global(w.me, local+uint64(bad))))
	}
	// Per-lane max: lanes where the current value is below mv take mv.
	bv := uint64(mv) * laneLo
	ge := ((x & laneVal8) | laneHi) - bv // high bit per lane with value >= mv
	lt := (^ge & laneHi) >> 7 * 0xFF     // 0xFF per lane with value < mv
	lt &= live
	x = x&^(lt&laneVal8) | bv&lt
	// Counter decrement on live lanes only.
	x -= laneCnt18 & live
	// Newly final: counter hit zero, or value reached the cutoff.
	cnt = x & laneCnt8
	newFin := ^((cnt | laneHi) - laneLo) & laneHi & live
	if w.finAt >= 0 {
		fv := x&laneVal8 ^ uint64(byte(w.finAt))*laneLo
		newFin |= ^((fv | laneHi) - laneLo) & laneHi & live // lanes with value == finAt
	}
	x = x&^(newFin>>1|newFin>>2|newFin>>3) | newFin // final, counter cleared
	binary.LittleEndian.PutUint64(w.lane[local:], x)
	w.Stats.Finalized += uint64(bits.OnesCount64(newFin))
	for m := newFin; m != 0; m &= m - 1 {
		w.next = append(w.next, local+uint64(bits.TrailingZeros64(m)/lanesPerWord))
	}
}
