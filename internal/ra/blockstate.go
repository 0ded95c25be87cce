package ra

import (
	"fmt"

	"retrograde/internal/game"
)

// Block-state export/import: the hooks internal/oocore's store — the
// out-of-core engine's spill blocks and the TCP mesh's checkpoints — uses
// to move a worker's per-position state between its in-core
// representation and a compressed spill block. The wire shape is
// kernel-independent — two uint16 streams per position — so a spilled
// block re-encodes bit-identically whichever kernel produced it:
//
//	vals[i]  the position's current value representation (the packed word's
//	         value field under the scalar kernel, the lane value field
//	         under SWAR — "no value yet" is NoValue resp. 0, each kernel's
//	         own encoding)
//	meta[i]  counter<<1 | final (final with counter ≠ 0: loop-resolved)
//
// The two streams compress independently (values are game-shaped, meta
// collapses to long runs once a region settles), which is why they are
// not interleaved.

// StateResident reports whether the worker's per-position state is in
// core. A worker whose state was released by DropState keeps its queues,
// stats and identity; only PackState, Init, the expansion loop, the Apply
// family, ResolveLoops and Fill need residency.
func (w *Worker) StateResident() bool { return w.state != nil || w.lane != nil }

// StateBytes returns the in-core footprint of the worker's per-position
// state when resident: what residency costs an out-of-core memory budget.
func (w *Worker) StateBytes() uint64 {
	if w.kern == KernelSWAR {
		return w.ShardSize() * LaneBytesPerPosition
	}
	return w.ShardSize() * StateBytesPerPosition
}

// PackState copies the worker's per-position state into the two streams,
// which must both have length ShardSize. The worker's state must be
// resident.
func (w *Worker) PackState(vals, meta []game.Value) {
	n := w.ShardSize()
	if uint64(len(vals)) != n || uint64(len(meta)) != n {
		panic(fmt.Sprintf("ra: PackState streams have %d/%d entries, want %d", len(vals), len(meta), n))
	}
	if !w.StateResident() {
		panic("ra: PackState on a worker whose state is not resident")
	}
	if w.lane != nil {
		for i, s := range w.lane {
			vals[i] = game.Value(s & laneValueMask)
			meta[i] = game.Value(s&laneCntField>>laneCntShift<<1 | s>>7)
		}
		return
	}
	for i, s := range w.state {
		vals[i] = stateValue(s)
		meta[i] = game.Value(stateCounter(s))<<1 | game.Value(s>>31)
	}
}

// RestoreState reallocates the worker's per-position state from the two
// streams written by PackState (same kernel, same shard). It returns an
// error when a stream value does not fit the kernel's packed layout —
// the signature of a corrupt or foreign spill block.
func (w *Worker) RestoreState(vals, meta []game.Value) error {
	n := w.ShardSize()
	if uint64(len(vals)) != n || uint64(len(meta)) != n {
		return fmt.Errorf("ra: RestoreState streams have %d/%d entries, want %d", len(vals), len(meta), n)
	}
	if w.kern == KernelSWAR {
		lane := make([]byte, n)
		for i := range vals {
			v, cnt := vals[i], meta[i]>>1
			if v > game.Value(laneValueMask) {
				return fmt.Errorf("ra: restored value %d does not fit the %d-bit lane value field", v, laneValueBits)
			}
			if cnt > laneMaxCnt {
				return fmt.Errorf("ra: restored counter %d exceeds the lane maximum %d", cnt, laneMaxCnt)
			}
			lane[i] = byte(v) | byte(cnt)<<laneCntShift | byte(meta[i]&1)<<7
		}
		w.lane = lane
		return nil
	}
	state := make([]uint32, n)
	for i := range vals {
		cnt := int32(meta[i] >> 1)
		if cnt > MaxSuccessors {
			return fmt.Errorf("ra: restored counter %d exceeds the packed maximum %d", cnt, MaxSuccessors)
		}
		state[i] = packState(vals[i], cnt, meta[i]&1 == 1)
	}
	w.state = state
	return nil
}

// DropState releases the worker's per-position state array (after the
// caller has spilled it via PackState) and its expansion's gather
// scratch, which is empty between expansion calls. Queues, stats, kernel
// identity and partition wiring survive; RestoreState brings the state
// back.
func (w *Worker) DropState() {
	w.state = nil
	w.lane = nil
	w.runs, w.runOwner, w.runSort = nil, nil, nil
}

// PeekWave returns the number of positions finalized in the current
// wave and waiting for the next BeginWave to promote them — the part of
// the coming wave's expansion frontier that is already known, visible
// without promoting it. The out-of-core scheduler uses it to prefetch
// the blocks the next wave will expand while the current wave is still
// flushing, and to rank a block's state as evictable when the coming
// wave provably will not touch it. The queues live outside the
// spillable state array, so PeekWave works on workers whose state is
// not resident.
func (w *Worker) PeekWave() int { return len(w.next) }

// Frontier returns the worker's wave queues — positions finalized last
// wave and not yet expanded, and positions finalized this wave — as local
// indices. The slices alias the worker's own queues; callers must not
// mutate them.
func (w *Worker) Frontier() (queue, next []uint64) {
	return w.queue, w.next
}

// SetFrontier replaces the worker's wave queues, taking ownership of the
// slices. The restore counterpart of Frontier.
func (w *Worker) SetFrontier(queue, next []uint64) {
	w.queue, w.next = queue, next
}
