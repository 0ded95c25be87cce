package ra

import (
	"fmt"
	"slices"

	"retrograde/internal/game"
)

// Block-state export/import: the hooks internal/oocore's store — the
// out-of-core engine's spill blocks and the TCP mesh's checkpoints — uses
// to move a worker's per-position state between its in-core
// representation and a compressed spill block. PackState and
// RestoreState produce and consume exactly the symbols the block stores,
// one pass each way, so the store encodes opaque streams and the
// kernel's layout has this one home:
//
//	SWAR    vals[i]  value | final<<4 | counter<<5: the lane byte with its
//	                 final flag moved below the counter, one 8-bit symbol
//	                 per position; meta is not used
//	scalar  vals[i]  value+1 mod 2^16, so NoValue, which every undecided
//	                 position carries, is symbol 0
//	        meta[i]  counter<<1 | final
//
// Under both kernels final with counter ≠ 0 means loop-resolved. The two
// scalar streams compress independently (values are game-shaped, meta
// collapses to long runs once a region settles), which is why they are
// not interleaved.

// StateResident reports whether the worker's per-position state is in
// core. A worker whose state was released by DropState keeps its queues,
// stats and identity; only PackState, Init, the expansion loop, the Apply
// family, ResolveLoops and Fill need residency.
func (w *Worker) StateResident() bool { return w.state != nil || w.lane != nil }

// StateBytes returns the in-core footprint of the worker's per-position
// state when resident: what residency costs an out-of-core memory budget.
func (w *Worker) StateBytes() uint64 { return w.ShardSize() * w.kern.BytesPerPosition() }

// PackState writes the worker's per-position state as its stored symbols
// (above) and returns the two streams: ShardSize symbols in vals, and
// ShardSize in meta under the scalar kernel or none under SWAR. It
// reuses the backing arrays of vals and meta, growing them when too
// small. The worker's state must be resident.
func (w *Worker) PackState(vals, meta []game.Value) (outVals, outMeta []game.Value) {
	if !w.StateResident() {
		panic("ra: PackState on a worker whose state is not resident")
	}
	n := int(w.ShardSize())
	vals = slices.Grow(vals[:0], n)[:n]
	if w.lane != nil {
		for i, s := range w.lane {
			vals[i] = game.Value(s&laneValueMask | s>>7<<laneValueBits | s&laneCntField<<1)
		}
		return vals, meta[:0]
	}
	meta = slices.Grow(meta[:0], n)[:n]
	for i, s := range w.state {
		vals[i] = stateValue(s) + 1
		meta[i] = game.Value(stateCounter(s))<<1 | game.Value(s>>31)
	}
	return vals, meta
}

// RestoreState reallocates the worker's per-position state from the
// streams PackState returns (same kernel, same shard). It returns an
// error when a stream has the wrong length or a SWAR symbol does not fit
// a lane byte — the signature of a corrupt or foreign spill block. Every
// pair of 16-bit scalar symbols is a valid state.
func (w *Worker) RestoreState(vals, meta []game.Value) error {
	n, metaLen := w.ShardSize(), w.ShardSize()
	if w.kern == KernelSWAR {
		metaLen = 0
	}
	if uint64(len(vals)) != n || uint64(len(meta)) != metaLen {
		return fmt.Errorf("ra: RestoreState streams have %d/%d entries, want %d/%d", len(vals), len(meta), n, metaLen)
	}
	if w.kern == KernelSWAR {
		lane := make([]byte, n)
		for i, v := range vals {
			if v > 0xFF {
				return fmt.Errorf("ra: restored symbol %#x does not fit a lane byte", v)
			}
			s := byte(v)
			lane[i] = s&laneValueMask | s>>(laneValueBits+1)<<laneCntShift | s>>laneValueBits&1<<7
		}
		w.lane = lane
		return nil
	}
	state := make([]uint32, n)
	for i, v := range vals {
		state[i] = packState(v-1, int32(meta[i]>>1), meta[i]&1 == 1)
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
