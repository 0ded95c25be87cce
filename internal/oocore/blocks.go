package oocore

import (
	"container/list"
	"fmt"
	"slices"
	"time"

	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// SpillStats describes how an out-of-core solve used the memory
// hierarchy — the counters behind the bench module's oocore.* rows.
type SpillStats struct {
	// Blocks is how many state blocks the rung was split into.
	Blocks int
	// BlockLen is the positions per block (the last block may be ragged).
	BlockLen uint64
	// MemLimit is the configured resident-state budget in bytes.
	MemLimit uint64
	// InCoreBytes is the state footprint a single in-core worker would
	// hold — the baseline the cap is expressed against.
	InCoreBytes uint64
	// PeakResidentBytes is the high-water mark of resident block state.
	// It can exceed MemLimit only by pinned blocks (the block being
	// expanded or applied to cannot spill under itself).
	PeakResidentBytes uint64
	// PeakPendingRuns is the high-water mark of cross-block update runs
	// parked for non-resident targets.
	PeakPendingRuns uint64
	SpillCounters
	// Resumed reports whether the solve continued from an on-disk
	// manifest instead of initialising from scratch.
	Resumed bool

	// Spill clocks: where this run's spill I/O time went (a resumed run
	// starts them at zero; manifests do not carry them). Encode and write
	// run on the writer goroutine, or inline on the engine thread when
	// spilling is synchronous; read and decode on the prefetcher or in a
	// demand load. StallTime is the engine thread blocked on the
	// pipeline: waiting for a write-behind slot, for a prefetch to land,
	// or for an in-flight write of a block it must read.
	EncodeTime time.Duration
	WriteTime  time.Duration
	ReadTime   time.Duration
	DecodeTime time.Duration
	StallTime  time.Duration
}

// SpillCounters are the cumulative spill-I/O counters a solve carries
// across a resume: every manifest records them.
type SpillCounters struct {
	// Spilled counts block spills (pack + encode + atomic write).
	Spilled uint64
	// Reloaded counts block reloads (read + decode + restore).
	Reloaded uint64
	// SpillBytesWritten and SpillBytesRead are the compressed traffic to
	// and from the spill store.
	SpillBytesWritten uint64
	SpillBytesRead    uint64
	// Checkpoints counts durable manifests written.
	Checkpoints uint64
	// PrefetchIssued counts background block reads started ahead of
	// need; PrefetchHits counts the loads they satisfied (the rest went
	// stale or the demand load won the race to issue).
	PrefetchIssued uint64
	PrefetchHits   uint64
	// WriteStalls counts evictions that had to wait for a write-behind
	// slot — the signal that spilling outran the store's bandwidth.
	WriteStalls uint64
}

// spillClock charges consecutive intervals of one goroutine's wall time
// to the SpillStats clocks.
type spillClock struct{ mark time.Time }

func startSpillClock() spillClock { return spillClock{mark: spillNow()} }

// lap charges the time since the previous lap (or the start) to d.
func (c *spillClock) lap(d *time.Duration) {
	now := spillNow()
	*d += now.Sub(c.mark)
	c.mark = now
}

// spillNow is this package's only reader of the wall clock.
func spillNow() time.Time {
	return time.Now() //ravet:ignore detrand spill clocks are reported in SpillStats and never reach block state, spill files or manifests
}

// block is one contiguous slice of the rung: a worker that is always
// alive (queues, stats, and partition wiring stay in RAM) whose
// per-position state array is the unit of spill and reload.
type block struct {
	idx   int
	w     *ra.Worker
	dirty bool // resident state differs from generation gen on disk
	pins  int  // >0 while the engine is touching the state; never evicted
	elem  *list.Element

	gen         uint64 // newest spill generation written or in flight; 0 = none
	manifestGen uint64 // generation the last durable manifest pins; 0 = none
	syncedGen   uint64 // newest generation known fsynced; 0 = none

	// touchEpoch marks the last residency pass (a wave, or the final
	// assembly) whose touch set included this block; makeRoom prefers
	// evicting blocks outside the current pass's set.
	touchEpoch uint64

	// pending holds update runs routed here while the state was not
	// resident; drained (applied) as soon as the block is loaded again —
	// at the latest on its visit in the next wave, which touches every
	// block with parked runs.
	pending []ra.UpdateRun
	// mark > 0 defers this wave's BeginWave to the block's visit: the
	// first mark pending runs belong to the previous wave and land before
	// the begin, the rest were parked during this one and land after it.
	mark int
	// queued is the size of this wave's expansion queue, known once the
	// wave has begun on the block.
	queued int
}

// blockManager owns residency: which blocks' state arrays are in core,
// charged against an explicit byte budget with LRU eviction — the
// serving cache's pin/budget policy turned to the solving side.
type blockManager struct {
	g      game.Game
	part   *ra.Partition
	kern   ra.Kernel
	budget uint64
	store  *spillStore

	blocks []*block
	lru    *list.List // *block entries; front = most recently loaded
	used   uint64

	pendingRuns uint64 // current total across all blocks' pending lists

	// Codec scratch, sized to the largest shard so steady-state spill and
	// reload traffic allocates nothing. Used by the synchronous paths
	// only; the async pipeline carries its own pooled buffers.
	vals, meta []game.Value
	enc        []byte

	// Spill pipeline; both nil when the engine runs synchronously.
	wb     *writeback
	pf     *prefetcher
	pfJobs []*prefetchJob // outstanding prefetch per block; engine thread only
	wbBase uint64         // SpillBytesWritten before this run's writer started
	wbErr  error          // writer's sticky error, preserved across closePipeline
	epoch  uint64         // current residency pass for touchEpoch marks

	stats SpillStats
}

func newBlockManager(g game.Game, kern ra.Kernel, part *ra.Partition, budget uint64, store *spillStore) *blockManager {
	nb := part.Workers()
	m := &blockManager{
		g:      g,
		part:   part,
		kern:   kern,
		budget: budget,
		store:  store,
		blocks: make([]*block, nb),
		lru:    list.New(),
	}
	maxShard := part.ShardSize(0) // block 0 is never the ragged tail
	m.vals = make([]game.Value, maxShard)
	m.meta = make([]game.Value, maxShard)
	for i := range m.blocks {
		m.blocks[i] = &block{idx: i}
	}
	m.stats.Blocks = nb
	m.stats.BlockLen = part.Group()
	m.stats.MemLimit = budget
	return m
}

// initFresh builds and initialises every block's worker, evicting ahead
// of each construction so initialisation itself runs under the cap.
func (m *blockManager) initFresh() error {
	for _, b := range m.blocks {
		need := m.part.ShardSize(b.idx) * m.bytesPerPosition()
		if err := m.makeRoom(need); err != nil {
			return err
		}
		w, err := ra.NewWorkerKernel(m.g, m.part, b.idx, m.kern)
		if err != nil {
			return err
		}
		b.w = w
		m.charge(b)
		b.elem = m.lru.PushFront(b)
		if _, err := w.Init(); err != nil {
			return err
		}
		b.dirty = true
	}
	return nil
}

// startPipeline brings up the async spill pipeline: a write-behind
// queue of depth jobs (depth ≤ 0 keeps spilling synchronous) and a
// prefetch window of window reads (window ≤ 0 keeps loads demand-only).
// Called after a resume has seeded the cumulative counters, so the
// writer's byte count folds on top of the manifest's.
func (m *blockManager) startPipeline(depth, window int) {
	if depth > 0 {
		m.wbBase = m.stats.SpillBytesWritten
		m.wb = newWriteback(m.store, depth)
	}
	if window > 0 {
		m.pf = newPrefetcher(m.store, m.wb, window)
		m.pfJobs = make([]*prefetchJob, len(m.blocks))
	}
}

// closePipeline quiesces and joins both pipeline goroutines, folding the
// writer's byte counter and both goroutines' clocks into the stats.
// Idempotent; must run before the store is cleared and before the
// manager's stats are read for the last time.
func (m *blockManager) closePipeline() {
	if m.pf != nil {
		m.pf.close() // closes every outstanding job's done channel
		for i := range m.pfJobs {
			m.pfJobs[i] = nil
		}
		m.stats.ReadTime += m.pf.readTime
		m.stats.DecodeTime += m.pf.decodeTime
		m.pf = nil
	}
	if m.wb != nil {
		m.wb.pending.Wait()
		m.stats.SpillBytesWritten = m.wbBase + m.wb.bytesWritten
		m.stats.EncodeTime += m.wb.encodeTime
		m.stats.WriteTime += m.wb.writeTime
		if m.wbErr == nil {
			m.wbErr = m.wb.firstError()
		}
		m.wb.close()
		m.wb = nil
	}
}

// quiesce waits until every write-behind job has committed, folds the
// writer's counters, and returns the pipeline's first error — the
// durability fence a manifest write stands behind.
func (m *blockManager) quiesce() error {
	if m.wb == nil {
		return nil
	}
	err := m.wb.barrier()
	m.stats.SpillBytesWritten = m.wbBase + m.wb.bytesWritten
	return err
}

// asyncErr is the non-blocking end-of-wave check: a spill that failed
// since the last wave surfaces here, without draining the queue. It
// keeps answering after closePipeline, so the final check still sees a
// last-wave failure.
func (m *blockManager) asyncErr() error {
	if m.wb != nil {
		if err := m.wb.firstError(); err != nil {
			return err
		}
	}
	return m.wbErr
}

func (m *blockManager) bytesPerPosition() uint64 {
	if m.kern == ra.KernelSWAR {
		return ra.LaneBytesPerPosition
	}
	return ra.StateBytesPerPosition
}

func (m *blockManager) pin(b *block)   { b.pins++ }
func (m *blockManager) unpin(b *block) { b.pins-- }

func (m *blockManager) charge(b *block) {
	m.used += b.w.StateBytes()
	if m.used > m.stats.PeakResidentBytes {
		m.stats.PeakResidentBytes = m.used
	}
}

// ensureResident makes b's state array live, reloading it from the spill
// store (and evicting colder blocks first) when it was spilled. Residency
// is only re-ranked here — applying updates to an already-resident block
// does not touch the LRU, so the replacement order is deterministic.
func (m *blockManager) ensureResident(b *block) error {
	if b.w.StateResident() {
		m.lru.MoveToFront(b.elem)
		return nil
	}
	if err := m.makeRoom(b.w.StateBytes()); err != nil {
		return err
	}
	if err := m.load(b); err != nil {
		return err
	}
	m.charge(b)
	b.elem = m.lru.PushFront(b)
	return nil
}

// makeRoom evicts resident unpinned blocks until need more bytes fit
// under the budget. Eviction is frontier-aware: the first pass takes, in
// LRU order, only blocks the current pass provably will not touch — not
// in its touch set, no already-known next-wave frontier (PeekWave); a
// resident block never holds parked runs — and only when those run out
// does plain LRU evict blocks the wave may still want back. When only
// pinned blocks remain the budget is allowed to overflow — the cache's
// pinned-overflow policy — so any positive cap still makes progress.
func (m *blockManager) makeRoom(need uint64) error {
	for _, strict := range []bool{true, false} {
		for e := m.lru.Back(); e != nil && m.used+need > m.budget; {
			b := e.Value.(*block)
			e = e.Prev()
			if b.pins > 0 || strict && (b.touchEpoch == m.epoch || b.w.PeekWave() > 0) {
				continue
			}
			if err := m.evict(b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *blockManager) evict(b *block) error {
	if b.dirty {
		if err := m.spill(b); err != nil {
			return err
		}
	}
	m.drop(b)
	return nil
}

// drop releases b's resident state and its budget charge. The state is
// gone, not spilled: evict spills a dirty block first, and the final
// pass drops a block once its values are collected, when nothing reads
// the state again and no manifest will pin it. Either way no resident
// state is left to differ from disk, so the block is clean.
func (m *blockManager) drop(b *block) {
	m.used -= b.w.StateBytes()
	m.lru.Remove(b.elem)
	b.elem = nil
	b.w.DropState()
	b.dirty = false
}

// spill moves b's state to the next on-disk generation. The block stays
// resident and is clean afterwards; the superseded generation is deleted
// unless the last durable manifest still pins it.
//
// With the write-behind pipeline up, spill only packs the state into a
// pooled job and returns — encode, write and the superseded-generation
// delete happen on the writer goroutine, and a failure surfaces at the
// next wave barrier (asyncErr) or manifest fence (quiesce). b.gen
// advances at submit: the generation may still be in flight, which is
// why every read path takes the writeback's waitBlock fence first.
func (m *blockManager) spill(b *block) error {
	if m.wb == nil {
		return m.spillSync(b)
	}
	n := int(b.w.ShardSize())
	c := startSpillClock()
	j, stalled := m.wb.acquire()
	if stalled {
		m.stats.WriteStalls++
		c.lap(&m.stats.StallTime)
	}
	j.vals = growValues(j.vals, n)
	j.meta = growValues(j.meta, n)
	b.w.PackState(j.vals, j.meta)
	j.block, j.kern, j.gen = b.idx, m.kern, b.gen+1
	j.removeGen = 0
	if b.gen != 0 && b.gen != b.manifestGen {
		j.removeGen = b.gen
	}
	m.wb.submit(j)
	b.gen++
	b.dirty = false
	m.stats.Spilled++
	return nil
}

// spillSync is the synchronous spill path: encode and write inline on
// the engine thread — the pre-pipeline behavior, kept as the A/B control
// for Writeback < 0 (rabuild -syncspill; bench row oocore.syncspill_s).
func (m *blockManager) spillSync(b *block) error {
	n := b.w.ShardSize()
	vals, meta := m.vals[:n], m.meta[:n]
	b.w.PackState(vals, meta)
	c := startSpillClock()
	enc, err := encodeSpill(m.enc[:0], b.idx, m.kern, vals, meta)
	if err != nil {
		return err
	}
	m.enc = enc
	c.lap(&m.stats.EncodeTime)
	if err := m.store.write(b.idx, b.gen+1, enc, true); err != nil {
		return err
	}
	c.lap(&m.stats.WriteTime)
	old := b.gen
	b.gen++
	b.dirty = false
	b.syncedGen = b.gen
	if old != 0 && old != b.manifestGen {
		m.store.remove(b.idx, old)
	}
	m.stats.Spilled++
	m.stats.SpillBytesWritten += uint64(len(enc))
	return nil
}

// spillAllDirty makes the on-disk image of every block current — the
// durability barrier a manifest write needs. Resident blocks stay
// resident.
func (m *blockManager) spillAllDirty() error {
	for _, b := range m.blocks {
		if b.w.StateResident() && b.dirty {
			if err := m.spill(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// syncPinned fsyncs every block's current generation that is not yet
// known durable, then the store directory, so the renames that named
// those generations are durable too — the group fsync a manifest write
// stands behind.
// Write-behind spills skip the per-file fsync (the eviction path's
// dominant cost), so durability is established here instead, once per
// checkpoint instead of once per spill, and only for the generations the
// manifest is about to pin. Must run after quiesce: the files have to be
// fully written before they can be synced.
func (m *blockManager) syncPinned() error {
	for _, b := range m.blocks {
		if b.gen != 0 && b.syncedGen != b.gen {
			if err := m.store.sync(b.idx, b.gen); err != nil {
				return err
			}
			b.syncedGen = b.gen
		}
	}
	return syncDir(m.store.dir)
}

// retireManifestPins moves the manifest pin of every block to its current
// generation and deletes generations only the previous manifest kept
// alive. Called after a manifest write lands.
func (m *blockManager) retireManifestPins() {
	for _, b := range m.blocks {
		if b.manifestGen != 0 && b.manifestGen != b.gen {
			m.store.remove(b.idx, b.manifestGen)
		}
		b.manifestGen = b.gen
	}
}

func (m *blockManager) load(b *block) error {
	// Once the write-behind pipeline has failed, the generation this load
	// wants may never have reached the disk — surface the original write
	// error, not the confusing missing-file read error it would cause.
	if err := m.asyncErr(); err != nil {
		return err
	}
	if m.pf != nil {
		if j := m.pfJobs[b.idx]; j != nil {
			m.pfJobs[b.idx] = nil
			c := startSpillClock()
			<-j.done
			c.lap(&m.stats.StallTime)
			hit, err := m.consumePrefetch(b, j)
			m.pf.release(j)
			if err != nil {
				return err
			}
			if hit {
				return nil
			}
		}
	}
	c := startSpillClock()
	if m.wb != nil {
		// Read-after-write fence: the generation we want may still be in
		// the write-behind queue.
		if err := m.wb.waitBlock(b.idx); err != nil {
			return err
		}
		c.lap(&m.stats.StallTime)
	}
	data, path, err := m.store.read(b.idx, b.gen)
	if err != nil {
		return err
	}
	c.lap(&m.stats.ReadTime)
	blk, kern, vals, meta, err := decodeSpill(path, data, m.vals, m.meta)
	if err != nil {
		return err
	}
	c.lap(&m.stats.DecodeTime)
	m.vals, m.meta = vals, meta
	if err := restoreState(b.w, path, blk, kern, vals, meta); err != nil {
		return err
	}
	m.stats.Reloaded++
	m.stats.SpillBytesRead += uint64(len(data))
	return nil
}

// consumePrefetch validates a completed prefetch and restores it into
// b. A stale generation (the block was respilled after the hint was
// issued — cannot happen today because respilling requires a load, which
// consumes the hint first, but guarded regardless) is a miss, not an
// error; everything else a demand load would reject is rejected here
// with the same CorruptSpillError shape.
func (m *blockManager) consumePrefetch(b *block, j *prefetchJob) (bool, error) {
	if j.gen != b.gen {
		return false, nil
	}
	if j.err != nil {
		return false, j.err
	}
	if err := restoreState(b.w, j.path, j.blk, j.kern, j.vals, j.meta); err != nil {
		return false, err
	}
	m.stats.Reloaded++
	m.stats.PrefetchHits++
	m.stats.SpillBytesRead += uint64(j.n)
	return true, nil
}

// prefetch opportunistically starts a background read of b's spilled
// state. Skipped when b is resident, already in flight or never spilled
// — a hint, never a stall. It reports false only when every prefetch
// buffer is busy (or the prefetcher is off).
func (m *blockManager) prefetch(b *block) bool {
	if m.pf == nil {
		return false
	}
	if b.w.StateResident() || m.pfJobs[b.idx] != nil || b.gen == 0 {
		return true
	}
	j := m.pf.tryAcquire()
	if j == nil {
		return false
	}
	j.block, j.gen = b.idx, b.gen
	m.pf.submit(j)
	m.pfJobs[b.idx] = j
	m.stats.PrefetchIssued++
	return true
}

// prefetchUpcoming advances the pass's read-ahead cursor past position
// k in the touch order, issuing background reads for upcoming spilled
// blocks as far as free prefetch buffers allow. The cursor never moves
// backwards, so a full scan of the pass costs O(len(touch)) total.
func (m *blockManager) prefetchUpcoming(touch []*block, cursor *int, k int) {
	*cursor = max(*cursor, k+1)
	for *cursor < len(touch) && m.prefetch(touch[*cursor]) {
		*cursor++
	}
}

// visit runs one residency pass over the blocks of touch, reversed in
// place when reverse is set. It opens a scheduling epoch whose touch set
// is exactly these blocks; each is then pinned, made resident and
// drained of its parked runs before fn works on it, while the
// prefetcher reads ahead along the rest of the list.
func (m *blockManager) visit(touch []*block, reverse bool, fn func(*block)) error {
	m.epoch++
	for _, b := range touch {
		b.touchEpoch = m.epoch
	}
	if reverse {
		slices.Reverse(touch)
	}
	cursor := 0
	for k, b := range touch {
		m.prefetchUpcoming(touch, &cursor, k)
		m.pin(b)
		if err := m.ensureResident(b); err != nil {
			m.unpin(b)
			return err
		}
		m.drainPending(b)
		fn(b)
		m.unpin(b)
	}
	return nil
}

// prefetchNextWave warms, in the next pass's visit order, the blocks it
// will visit — those whose frontier is already visible (PeekWave) and
// those holding parked runs — while the wave barrier leaves the spill
// store idle.
func (m *blockManager) prefetchNextWave(reverse bool) {
	for k := range m.blocks {
		if reverse {
			k = len(m.blocks) - 1 - k
		}
		if b := m.blocks[k]; (b.w.PeekWave() > 0 || len(b.pending) > 0) && !m.prefetch(b) {
			return
		}
	}
}

// notePending accounts n update runs parked on a non-resident block.
func (m *blockManager) notePending(n uint64) {
	m.pendingRuns += n
	if m.pendingRuns > m.stats.PeakPendingRuns {
		m.stats.PeakPendingRuns = m.pendingRuns
	}
}

// drainPending applies every parked update run to b, which must be
// resident. A deferred block (mark > 0) lands the previous wave's runs,
// begins its wave, then lands this wave's — the in-core order on the
// block. Order within a wave is irrelevant to the result (updates
// commute), so parking and draining keeps the database bit-identical to
// an in-core solve.
func (m *blockManager) drainPending(b *block) {
	if len(b.pending) == 0 {
		return
	}
	if b.mark > 0 {
		b.land(b.pending[:b.mark])
		b.queued = b.w.BeginWave()
	}
	b.land(b.pending[b.mark:])
	b.mark = 0
	m.pendingRuns -= uint64(len(b.pending))
	b.pending = b.pending[:0]
}

// land applies update runs to b's resident state.
func (b *block) land(runs []ra.UpdateRun) {
	for _, run := range runs {
		b.w.ApplyRun(run)
	}
	b.dirty = true
}

// restore rebuilds every block from a validated manifest whose entries
// are shards 0..n-1 of m's partition: workers come back with their
// queues, stats and spill generations, state stays on disk until first
// touch.
func (m *blockManager) restore(mf *manifest, path string) error {
	for i, b := range m.blocks {
		mb := &mf.blocks[i]
		w, err := restoreWorker(m.g, m.part, m.kern, mb, path)
		if err != nil {
			return err
		}
		b.w = w
		b.gen = mb.gen
		b.manifestGen = mb.gen
		b.syncedGen = mb.gen // pinned generations were synced before the manifest landed
		b.dirty = false
		b.pending = mb.pending
		m.notePending(uint64(len(mb.pending)))
	}
	m.stats.SpillCounters = mf.counters
	m.stats.Resumed = true
	return nil
}

// manifestSnapshot captures the blocks' durable state for a manifest
// write; every block must be clean and every write-behind job committed
// (spillAllDirty then quiesce first — quiesce also folds the counters
// the snapshot records).
func (m *blockManager) manifestSnapshot(waves uint64) (*manifest, error) {
	mf := &manifest{
		size:     m.part.Size(),
		kernel:   m.kern,
		shards:   uint32(len(m.blocks)),
		group:    m.part.Group(),
		waves:    waves,
		counters: m.stats.SpillCounters,
		blocks:   make([]manifestBlock, len(m.blocks)),
	}
	for i, b := range m.blocks {
		if b.dirty {
			return nil, fmt.Errorf("oocore: manifest snapshot of dirty block %d", i)
		}
		if b.gen == 0 {
			return nil, fmt.Errorf("oocore: manifest snapshot of block %d with no spill generation", i)
		}
		mf.blocks[i] = entryOf(b.w, b.gen, b.pending)
	}
	return mf, nil
}
