package oocore

// The spill store's two I/O steps. Every spill-file write — an evicted
// block, a checkpoint's dirty block, a mesh node's shard — runs commit:
// encode a base image or a delta with the zdb codecs, write the file
// atomically, and only then delete the files it supersedes. Every
// spill-file read — a prefetch, a demand load, a shard restore — runs
// fetch: wait out any in-flight write of the block, read and decode the
// base, then read its delta, if any, and patch the decoded streams.
//
// Write-behind: the eviction path packs a block's state into a pooled
// job and returns immediately; a dedicated writer goroutine commits it.
// This takes the whole encode+write cost off the wave's critical
// path — the paper's pipelined send/receive discipline, applied to the
// memory hierarchy instead of the network. With Writeback < 0 (and for a
// shard store) the same commit runs inline on the caller's goroutine
// and fsyncs each file it writes.
//
// Correctness rules the pipeline preserves:
//
//   - Generation ordering. The queue is FIFO and drained by one writer,
//     so successive generations of the same block commit in order, and
//     a superseded file is deleted only after its replacement is
//     written. A crash at any instant leaves every manifest-pinned
//     generation intact.
//   - Read-after-write. A block whose newest generation is still in
//     flight is registered in the in-flight map; fetch waits for that
//     write to commit before touching the disk.
//   - Error surfacing. The first write error is sticky: the writer
//     turns into a sink (remaining jobs complete without writing) and
//     the engine observes the error at the next wave barrier; an inline
//     commit returns it from the failing spill itself. Nothing is
//     deleted after a failure, so resume still finds the
//     manifest-pinned store.
//   - Quiescence. A manifest may pin a generation only after every
//     queued write has committed; barrier() is that fence.

import (
	"encoding/binary"
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
	block int
	kern  ra.Kernel
	gen   uint64 // generation this write creates
	kind  spillKind
	// base is the generation a delta patches; runs index the positions
	// that may differ from it.
	base uint64
	runs []deltaRun
	// remove names the superseded files to delete after commit; 0 = none.
	remove files

	vals, meta []game.Value // the block's full streams, as PackState returns them

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

// writeback owns the store's write step and its read-after-write fence:
// a bounded job queue drained by one tracked writer goroutine, or, when
// inline, no queue and no goroutine at all.
type writeback struct {
	store  *spillStore
	inline bool // the submitting goroutine commits each job, durably
	jobs   chan *spillJob
	free   chan *spillJob
	depth  int
	made   int // jobs allocated so far (engine goroutine only), ≤ depth

	pending sync.WaitGroup // outstanding jobs; Wait is the quiesce fence
	wg      sync.WaitGroup // the writer goroutine itself

	mu       sync.Mutex
	inflight map[int]*inflightWrite // newest uncommitted write per block
	firstErr error

	// Committer state. bytesWritten and the clocks are read by the
	// engine only after pending.Wait(), which orders the access.
	enc                   []byte
	delta                 deltaImage // a delta's gathered symbols
	sums                  map[int]baseSum
	bytesWritten          uint64
	encodeTime, writeTime time.Duration
}

// baseSum is the CRC-64 tail of the newest base image committed for a
// block, which every delta against it records.
type baseSum struct{ gen, crc uint64 }

// newWriteback starts a write-behind queue of depth jobs; depth ≤ 0
// makes the writeback inline: one job, committed by submit itself.
func newWriteback(store *spillStore, depth int) *writeback {
	wb := &writeback{store: store, inline: depth <= 0, depth: max(depth, 1), sums: map[int]baseSum{}}
	wb.free = make(chan *spillJob, wb.depth)
	wb.inflight = make(map[int]*inflightWrite, wb.depth)
	if !wb.inline {
		wb.jobs = make(chan *spillJob, wb.depth)
		wb.wg.Add(1)
		go wb.run()
	}
	return wb
}

// acquire returns a job with reusable buffers, blocking when all depth
// jobs are in flight. stalled reports whether it had to wait — the
// write-stall counter's signal that eviction outran the spill store.
// An inline writeback's one job is back in the pool when submit
// returns, so it never stalls.
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

// submit hands a filled job to the writer and returns nil, or, inline,
// commits it and returns the commit's error. The jobs channel holds
// depth entries and at most depth jobs exist, so the send never blocks.
func (wb *writeback) submit(j *spillJob) error {
	if wb.inline {
		err := wb.commit(j)
		wb.free <- j
		return err
	}
	j.rec = &inflightWrite{done: make(chan struct{})}
	wb.pending.Add(1)
	wb.mu.Lock()
	wb.inflight[j.block] = j.rec
	wb.mu.Unlock()
	wb.jobs <- j
	return nil
}

// run is the writer goroutine: commit, publish the outcome to the
// job's waiters, recycle the job. It exits when the jobs channel is
// closed and drained.
func (wb *writeback) run() {
	defer wb.wg.Done()
	for j := range wb.jobs {
		err := wb.commit(j)
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

// commit is the write step: encode j's streams as a base image or as a
// delta against j.base, write generation j.gen, delete the files it
// supersedes. After the first failure it writes nothing and returns that
// failure. Only an inline writeback fsyncs: write-behind generations need
// to be durable only by the next manifest fence, where
// blockManager.syncPinned syncs the files the manifest pins.
func (wb *writeback) commit(j *spillJob) error {
	if err := wb.firstError(); err != nil {
		return err
	}
	c := startSpillClock()
	enc, err := wb.encode(j)
	c.lap(&wb.encodeTime)
	if err == nil {
		wb.enc = enc
		err = wb.store.write(j.block, j.gen, j.kind, enc, wb.inline)
		c.lap(&wb.writeTime)
	}
	if err != nil {
		wb.fail(err)
		return err
	}
	wb.bytesWritten += uint64(len(enc))
	if j.kind != kindDelta {
		wb.sums[j.block] = baseSum{j.gen, binary.LittleEndian.Uint64(enc[len(enc)-8:])}
	}
	if j.remove.base != 0 {
		wb.store.remove(j.block, j.remove.base, false)
	}
	if j.remove.delta != 0 {
		wb.store.remove(j.block, j.remove.delta, true)
	}
	return nil
}

// encode lays out j's file image in the committer's buffer. A delta
// records the checksum of its base: the one this writer committed last
// for the block, or, for a base an earlier run left, the file's own tail.
func (wb *writeback) encode(j *spillJob) ([]byte, error) {
	if j.kind != kindDelta {
		return encodeSpill(wb.enc[:0], j.block, j.kern, j.vals, j.meta)
	}
	sum, ok := wb.sums[j.block]
	if !ok || sum.gen != j.base {
		crc, err := wb.store.baseCRC(j.block, j.base)
		if err != nil {
			return nil, err
		}
		sum = baseSum{j.base, crc}
		wb.sums[j.block] = sum
	}
	d := &wb.delta
	*d = deltaImage{block: j.block, kern: j.kern, count: len(j.vals), baseGen: sum.gen, baseCRC: sum.crc,
		runs: j.runs, vals: gatherRuns(d.vals[:0], j.vals, j.runs), meta: d.meta[:0]}
	if len(j.meta) > 0 {
		d.meta = gatherRuns(d.meta, j.meta, j.runs)
	}
	return encodeDelta(wb.enc[:0], d)
}

// readJob carries one block read through the read step: the request,
// then the decoded streams and what the read cost.
type readJob struct {
	block int
	gen   uint64 // newest generation of the block: its delta's, or its base's
	files files  // the base image to read and the delta that patches it

	// Set by fetch.
	path                string
	vals, meta          []game.Value
	delta               deltaImage // the delta read, its runs the block's change record
	blk                 int        // block index the file claims
	kern                ra.Kernel  // kernel the file claims
	n                   int        // compressed bytes read
	baseBytes           int        // of them, the base image's
	err                 error
	fence, read, decode time.Duration

	done chan struct{} // closed once a prefetched job is fetched
}

// fetch is the read step: wait out any in-flight write of j's block,
// then read its base image and decode it into j's buffers, then read the
// delta, if any, and patch them, timing each stage. Safe from any
// goroutine.
func (wb *writeback) fetch(j *readJob) {
	j.fence, j.read, j.decode = 0, 0, 0
	j.delta.runs = j.delta.runs[:0]
	c := startSpillClock()
	j.err = wb.waitBlock(j.block)
	c.lap(&j.fence)
	if j.err != nil {
		return
	}
	var data []byte
	data, j.path, j.err = wb.store.read(j.block, j.files.base, false)
	c.lap(&j.read)
	if j.err != nil {
		return
	}
	j.n, j.baseBytes = len(data), len(data)
	j.blk, j.kern, j.vals, j.meta, j.err = decodeSpill(j.path, data, j.vals, j.meta)
	c.lap(&j.decode)
	if j.err != nil || j.files.delta == 0 {
		return
	}
	baseCRC := binary.LittleEndian.Uint64(data[len(data)-8:])
	data, j.path, j.err = wb.store.read(j.block, j.files.delta, true)
	c.lap(&j.read)
	if j.err != nil {
		return
	}
	j.n += len(data)
	if j.err = decodeDelta(j.path, data, &j.delta); j.err == nil {
		j.err = applyDelta(j.path, &j.delta, j.blk, j.kern, j.files.base, baseCRC, j.vals, j.meta)
	}
	c.lap(&j.decode)
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

// close drains the queue and joins the writer goroutine. Idempotent;
// must not race submit.
func (wb *writeback) close() {
	if wb.jobs != nil {
		close(wb.jobs)
		wb.wg.Wait()
		wb.jobs = nil
	}
}
