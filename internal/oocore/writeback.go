package oocore

// Write-behind spilling: the eviction path packs a block's state into a
// pooled job and returns immediately; a dedicated writer goroutine
// encodes the job with the zdb codecs, writes the spill file atomically
// and only then deletes the generation it supersedes. This takes the
// whole encode+fsync+rename cost off the wave's critical path — the
// paper's pipelined send/receive discipline, applied to the memory
// hierarchy instead of the network.
//
// Correctness rules the pipeline preserves:
//
//   - Generation ordering. The queue is FIFO and drained by one writer,
//     so successive generations of the same block commit in order, and
//     a superseded file is deleted only after its replacement is
//     durable. A crash at any instant leaves every manifest-pinned
//     generation intact.
//   - Read-after-write. A block whose newest generation is still in
//     flight is registered in the in-flight map; loads (demand or
//     prefetch) wait for that write to commit before touching the disk.
//   - Error surfacing. The first write error is sticky: the writer
//     turns into a sink (remaining jobs complete without writing) and
//     the engine observes the error at the next wave barrier — exactly
//     where a synchronous spill would have failed, one wave earlier.
//     Nothing is deleted after a failure, so resume still finds the
//     manifest-pinned store.
//   - Quiescence. A manifest may pin a generation only after every
//     queued write has committed; barrier() is that fence.

import (
	"sync"
	"time"

	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// DefaultWritebackDepth is the write-behind queue depth — the number of
// packed spill jobs that may be in flight — when the Engine does not pin
// one. Each job holds one block's packed state streams, so the pipeline
// adds at most depth block-state copies to the caller's memory.
const DefaultWritebackDepth = 4

// spillJob carries one block's packed state streams through the
// write-behind pipeline. Jobs are pooled: at most depth exist, so the
// pipeline's memory is bounded regardless of block count.
type spillJob struct {
	block     int
	kern      ra.Kernel
	gen       uint64 // generation this write creates
	removeGen uint64 // superseded generation to delete after commit; 0 = none

	vals, meta []game.Value

	rec *inflightWrite // this submission's completion record
}

// inflightWrite is one submission's completion record. Unlike the pooled
// job it is allocated per submit and never reused, so a waiter that
// picked it out of the in-flight map can safely block on done and read
// err afterwards, however the job itself gets recycled meanwhile.
type inflightWrite struct {
	err  error // set by the writer before done is closed
	done chan struct{}
}

// writeback owns the write-behind half of the spill pipeline: a bounded
// job queue drained by one tracked writer goroutine.
type writeback struct {
	store *spillStore
	jobs  chan *spillJob
	free  chan *spillJob
	depth int
	made  int // jobs allocated so far (engine goroutine only), ≤ depth

	pending sync.WaitGroup // outstanding jobs; Wait is the quiesce fence
	wg      sync.WaitGroup // the writer goroutine itself

	mu       sync.Mutex
	inflight map[int]*inflightWrite // newest uncommitted write per block
	firstErr error

	// Writer-goroutine state. bytesWritten and the clocks are read by the
	// engine only after pending.Wait(), which orders the access.
	enc                   []byte
	bytesWritten          uint64
	encodeTime, writeTime time.Duration
}

func newWriteback(store *spillStore, depth int) *writeback {
	wb := &writeback{
		store:    store,
		depth:    depth,
		jobs:     make(chan *spillJob, depth),
		free:     make(chan *spillJob, depth),
		inflight: make(map[int]*inflightWrite, depth),
	}
	wb.wg.Add(1)
	go wb.run()
	return wb
}

// acquire returns a job with reusable buffers, blocking when all depth
// jobs are in flight. stalled reports whether it had to wait — the
// write-stall counter's signal that eviction outran the spill store.
func (wb *writeback) acquire() (j *spillJob, stalled bool) {
	select {
	case j = <-wb.free:
		return j, false
	default:
	}
	if wb.made < wb.depth {
		wb.made++
		return &spillJob{}, false
	}
	return <-wb.free, true
}

// submit hands a filled job to the writer. The jobs channel holds depth
// entries and at most depth jobs exist, so the send never blocks.
func (wb *writeback) submit(j *spillJob) {
	j.rec = &inflightWrite{done: make(chan struct{})}
	wb.pending.Add(1)
	wb.mu.Lock()
	wb.inflight[j.block] = j.rec
	wb.mu.Unlock()
	wb.jobs <- j
}

// run is the writer goroutine: encode, write, retire the superseded
// generation, publish the outcome. It exits when the jobs channel is
// closed and drained.
func (wb *writeback) run() {
	defer wb.wg.Done()
	for j := range wb.jobs {
		err := wb.firstError()
		if err == nil {
			c := startSpillClock()
			wb.enc, err = encodeSpill(wb.enc[:0], j.block, j.kern, j.vals, j.meta)
			c.lap(&wb.encodeTime)
			if err == nil {
				// Not durable: the next manifest fence group-syncs the
				// generations it pins (blockManager.syncPinned), which is
				// where this file first needs to survive a crash.
				err = wb.store.write(j.block, j.gen, wb.enc, false)
				c.lap(&wb.writeTime)
			}
			if err == nil {
				wb.bytesWritten += uint64(len(wb.enc))
				if j.removeGen != 0 {
					wb.store.remove(j.block, j.removeGen)
				}
			} else {
				wb.fail(err)
			}
		}
		rec := j.rec
		rec.err = err
		wb.mu.Lock()
		if wb.inflight[j.block] == rec {
			delete(wb.inflight, j.block)
		}
		wb.mu.Unlock()
		close(rec.done)
		wb.pending.Done()
		wb.free <- j // cap == depth and at most depth jobs exist: never blocks
	}
}

// waitBlock blocks until any in-flight write of the block has committed
// and returns its error — the read-after-write fence every load takes.
// Safe from any goroutine: the record it waits on is never reused.
func (wb *writeback) waitBlock(block int) error {
	wb.mu.Lock()
	rec := wb.inflight[block]
	wb.mu.Unlock()
	if rec == nil {
		return nil
	}
	<-rec.done
	return rec.err
}

// barrier waits until every submitted job has committed and returns the
// first error the pipeline hit — the durability fence a manifest write
// (and the final store clear) stands behind.
func (wb *writeback) barrier() error {
	wb.pending.Wait()
	return wb.firstError()
}

func (wb *writeback) fail(err error) {
	wb.mu.Lock()
	if wb.firstErr == nil {
		wb.firstErr = err
	}
	wb.mu.Unlock()
}

// firstError returns the sticky first write error, nil while healthy.
// Cheap enough to poll at every wave barrier without draining the queue.
func (wb *writeback) firstError() error {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return wb.firstErr
}

// close drains the queue and joins the writer goroutine. Idempotent via
// the caller (blockManager.closePipeline); must not race submit.
func (wb *writeback) close() {
	close(wb.jobs)
	wb.wg.Wait()
}
