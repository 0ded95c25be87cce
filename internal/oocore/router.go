package oocore

import (
	"retrograde/internal/combine"
	"retrograde/internal/ra"
)

// routerBatch is the combining factor for cross-block update runs: a
// destination's parked runs are appended to its block in batches of this
// many, so the pending lists grow in few, large steps.
const routerBatch = 256

// router is message combining turned inward: the destinations are spill
// blocks instead of cluster nodes, and the expensive hop being batched
// over is the memory hierarchy instead of the network. Cross-block
// updates accumulate per destination as run-encoded batches; a batch
// lands directly in the target worker when its state happens to be
// resident and is parked on the block otherwise, to be drained on the
// next load — at the latest on the block's visit in the next wave.
type router struct {
	m   *blockManager
	buf *combine.Buffer[ra.UpdateRun]
	// open holds the run still being extended per destination (Count == 0
	// when empty), so consecutive runs coalesce before they ever reach the
	// combining buffer.
	open []ra.UpdateRun
}

func newRouter(m *blockManager) *router {
	r := &router{m: m, open: make([]ra.UpdateRun, len(m.blocks))}
	r.buf = combine.MustNew(len(m.blocks), routerBatch, r.deliver)
	return r
}

// addRun routes one update run, merging it into the destination's open
// run when contiguous.
func (r *router) addRun(dst int, run ra.UpdateRun) {
	o := &r.open[dst]
	if o.Count > 0 {
		if run.Base == o.Base+uint64(o.Count) && run.Value == o.Value {
			o.Count += run.Count
			return
		}
		r.buf.Add(dst, *o)
	}
	*o = run
}

// flushAll closes every open run and drains the combining buffer — the
// wave-end barrier. After it returns, every emitted update is either
// applied or parked on its target block's pending list.
func (r *router) flushAll() {
	for dst := range r.open {
		if r.open[dst].Count > 0 {
			r.buf.Add(dst, r.open[dst])
			r.open[dst].Count = 0
		}
	}
	r.buf.FlushAll()
}

// deliver lands one batch on its destination block.
func (r *router) deliver(dst int, batch []ra.UpdateRun) {
	b := r.m.blocks[dst]
	if b.w.StateResident() {
		b.land(batch)
		return
	}
	b.pending = append(b.pending, batch...)
	r.m.notePending(uint64(len(batch)))
}
