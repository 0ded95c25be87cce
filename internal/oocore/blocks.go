package oocore

import (
	"container/list"
	"fmt"
	"math/bits"
	"path/filepath"
	"time"

	"retrograde/internal/db"
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
	// spilling is synchronous: a base image's encode is the whole block's
	// Huffman pass, a delta's only its changed symbols'. Read and decode
	// run on the prefetcher or in a demand load, and cover a base and its
	// delta, patch included. StallTime is the engine thread blocked on the
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
	// Spilled counts block spills (pack + encode + atomic write). A
	// block's first spill writes a full image, its base; each later one
	// writes either a delta — every position changed since the base —
	// or, once that delta would pass 1/compactDivisor of the base's
	// bytes, a new base. Deltas and Compactions count those two kinds,
	// so Spilled − Deltas − Compactions blocks were spilled a first time.
	Spilled     uint64
	Deltas      uint64
	Compactions uint64
	// Reloaded counts block reloads (read + decode + restore).
	Reloaded uint64
	// SpillBytesWritten and SpillBytesRead are the compressed traffic to
	// and from the spill store: bases and deltas both.
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

// files names the spill files that hold one state of a block: a base
// image and the delta that patches it, by generation; 0 = none.
type files struct{ base, delta uint64 }

// compactDivisor is when a re-spill writes a new base instead of a delta:
// once the delta — its index plus its changed symbols before
// compression — would pass 1/compactDivisor of the base image's bytes.
// Measured on awari rung 13 at a 25 % cap (DESIGN.md, the delta-format
// decision): divisors 1, 2, 4 and 8 solved within this host's noise of
// each other, and 4 wrote the fewest bytes.
const compactDivisor = 4

// block is one contiguous slice of the rung: a worker that is always
// alive (queues, stats, and partition wiring stay in RAM) whose
// per-position state array is the unit of spill and reload.
type block struct {
	idx   int
	w     *ra.Worker
	dirty bool // resident state differs from what files describe
	pins  int  // >0 while the engine is touching the state; never evicted
	elem  *list.Element

	gen    uint64 // newest spill generation written or in flight; 0 = none
	files  files  // the newest base and delta, written or in flight
	pinned files  // what the last durable manifest pins
	synced files  // the files known fsynced

	// changed is the change record: one bit per position written since
	// files.base, so a superset of the positions whose symbol differs
	// from it. Held only while the state is resident and a base exists;
	// a reload restores it from the delta's index.
	changed []uint64
	// baseBytes is the size of the base image, learned when it was last
	// read back; 0 until then, and no spill compacts before it is known.
	baseBytes int

	// touchEpoch marks the last residency pass (a wave, or the final
	// assembly) whose touch set included this block; makeRoom prefers
	// evicting blocks outside the current pass's set.
	touchEpoch uint64

	// pending holds update runs routed here while the state was not
	// resident; the driver lands them on the block's next visit, which
	// comes in the next pass at the latest.
	pending []ra.UpdateRun
}

// blockManager owns residency: which blocks' state arrays are in core,
// charged against an explicit byte budget with LRU eviction — the
// serving cache's pin/budget policy turned to the solving side, as the
// ra.Residency of a host solve. Every spill goes through the
// writeback's write step (commit) and every load through its read step
// (fetch) and then reload, the one restore step.
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

	// Spill pipeline. wb commits every spill, inline when spilling is
	// synchronous; pf is nil when prefetch is off. demand is the read job
	// a load fetches into when no prefetch has it, its buffers grown to
	// the largest shard on first use.
	wb     *writeback
	pf     *prefetcher
	pfJobs []*readJob // outstanding prefetch per block; engine thread only
	demand readJob
	wbBase uint64 // SpillBytesWritten before this run's writer started
	epoch  uint64 // current residency pass for touchEpoch marks

	e         Engine // the checkpoint schedule: CheckpointEvery, StopAfterWaves
	resumedAt int    // waves the manifest resumed from

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
	for i := range m.blocks {
		m.blocks[i] = &block{idx: i}
	}
	m.stats.Blocks = nb
	m.stats.BlockLen = part.Group()
	m.stats.MemLimit = budget
	return m
}

// Init implements ra.Residency: a block restored from the manifest comes
// back as it was checkpointed; otherwise its worker is built and
// initialised, evicting ahead of the construction so initialisation
// itself runs under the cap.
func (m *blockManager) Init(i int) (*ra.Worker, error) {
	b := m.blocks[i]
	if b.w != nil {
		return b.w, nil
	}
	if err := m.makeRoom(m.part.ShardSize(i) * m.kern.BytesPerPosition()); err != nil {
		return nil, err
	}
	w, err := ra.NewWorkerKernel(m.g, m.part, i, m.kern)
	if err != nil {
		return nil, err
	}
	b.w = w
	m.charge(b)
	b.elem = m.lru.PushFront(b)
	b.dirty = true
	_, err = w.Init()
	return w, err
}

// startPipeline brings up the spill pipeline: a write-behind queue of
// depth jobs (depth ≤ 0 commits every spill inline) and a prefetch
// window of window reads (window ≤ 0 keeps loads demand-only). Called
// after a resume has seeded the cumulative counters, so the writer's
// byte count folds on top of the manifest's.
func (m *blockManager) startPipeline(depth, window int) {
	m.wbBase = m.stats.SpillBytesWritten
	m.wb = newWriteback(m.store, depth)
	m.pfJobs = make([]*readJob, len(m.blocks))
	if window > 0 {
		m.pf = newPrefetcher(m.wb, window)
	}
}

// closePipeline joins both pipeline goroutines, folding the writer's
// byte counter and both goroutines' clocks into the stats. Idempotent;
// must run before the store is cleared and before the manager's stats
// are read for the last time. The writer's sticky error stays readable
// (wb.firstError), so the final check still sees a last-wave failure.
func (m *blockManager) closePipeline() {
	if m.pf != nil {
		m.pf.close() // closes every outstanding job's done channel
		clear(m.pfJobs)
		m.stats.ReadTime += m.pf.readTime
		m.stats.DecodeTime += m.pf.decodeTime
		m.pf = nil
	}
	m.wb.close()
	m.stats.SpillBytesWritten = m.wbBase + m.wb.bytesWritten
	m.stats.EncodeTime, m.stats.WriteTime = m.wb.encodeTime, m.wb.writeTime
}

// quiesce waits until every write-behind job has committed, folds the
// writer's byte counter, and returns the pipeline's first error — the
// durability fence a manifest write stands behind.
func (m *blockManager) quiesce() error {
	err := m.wb.barrier()
	m.stats.SpillBytesWritten = m.wbBase + m.wb.bytesWritten
	return err
}

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
	b.changed = nil
	b.dirty = false
}

// spill moves b's state to the next on-disk generation: it packs the
// state into a pooled job and submits it to the write step. A block with
// no base yet gets one, a full image; otherwise the job is a delta — the
// change record's runs — unless that delta has outgrown the base, when it
// compacts into a new base. The block stays resident and is clean
// afterwards; the superseded files are deleted unless the last durable
// manifest still pins them.
//
// With the write-behind pipeline up, the writer goroutine commits the
// job after spill returns, and a failure surfaces at the next wave
// barrier or manifest fence (quiesce). b.gen advances at submit: the
// generation may still be in flight, which is why the read step waits on
// the writeback's fence first. Synchronous spilling (Writeback < 0)
// commits inline: the write is durable and its error is spill's.
func (m *blockManager) spill(b *block) error {
	c := startSpillClock()
	j, stalled := m.wb.acquire()
	if stalled {
		m.stats.WriteStalls++
		c.lap(&m.stats.StallTime)
	}
	j.vals, j.meta = b.w.PackState(j.vals, j.meta)
	j.block, j.kern, j.gen = b.idx, m.kern, b.gen+1
	old := b.files
	j.kind, j.base = kindBase, 0
	if b.files.base != 0 {
		j.kind = kindCompaction
		j.runs = appendChangedRuns(j.runs[:0], b.changed)
		if !m.compactDue(b, j.runs) {
			j.kind, j.base = kindDelta, b.files.base
		}
	}
	if j.kind == kindDelta {
		b.files.delta = j.gen
	} else {
		b.files = files{base: j.gen}
		b.baseBytes = 0
		if b.changed == nil {
			b.changed = make([]uint64, (b.w.ShardSize()+63)/64)
		} else {
			clear(b.changed)
		}
	}
	j.remove = files{}
	if old.base != b.files.base && old.base != b.pinned.base {
		j.remove.base = old.base
	}
	if old.delta != b.files.delta && old.delta != b.pinned.delta {
		j.remove.delta = old.delta
	}
	if err := m.wb.submit(j); err != nil {
		return err
	}
	b.gen++
	b.dirty = false
	if m.wb.inline {
		b.synced = b.files
	}
	m.stats.Spilled++
	switch j.kind {
	case kindDelta:
		m.stats.Deltas++
	case kindCompaction:
		m.stats.Compactions++
	}
	return nil
}

// compactDue reports whether b's next spill, whose delta would index
// runs, writes a new base instead: once the delta's bytes before
// compression pass 1/compactDivisor of the base image's, known from the
// base's last read. The decision uses only the engine thread's state, so
// the files a solve writes do not depend on the writer's timing.
func (m *blockManager) compactDue(b *block, runs []deltaRun) bool {
	if b.baseBytes == 0 {
		return false
	}
	changed := 0
	for _, r := range runs {
		changed += int(r.n)
	}
	symbolBytes := 1 // a SWAR lane byte
	if m.kern != ra.KernelSWAR {
		symbolBytes = 4 // two 16-bit scalar symbols
	}
	size := deltaHeaderLen + 8 + indexBytes(runs) + changed*symbolBytes
	return size*compactDivisor > b.baseBytes
}

// appendChangedRuns appends the runs of set bits in the change record
// to dst, in increasing order.
func appendChangedRuns(dst []deltaRun, changed []uint64) []deltaRun {
	var start uint64
	open := false
	for wi, w := range changed {
		base := uint64(wi) * 64
		for bit := uint64(0); bit < 64; {
			if open {
				z := ^w >> bit // the run ends at the first clear bit
				if z == 0 {
					break // and continues into the next word
				}
				bit += uint64(bits.TrailingZeros64(z))
				dst = append(dst, deltaRun{uint32(start), uint32(base + bit - start)})
				open = false
				continue
			}
			o := w >> bit
			if o == 0 {
				break
			}
			bit += uint64(bits.TrailingZeros64(o))
			start, open = base+bit, true
		}
	}
	if open {
		dst = append(dst, deltaRun{uint32(start), uint32(uint64(len(changed))*64 - start)})
	}
	return dst
}

// markChanged records n positions from local in a change record.
func markChanged(changed []uint64, local, n uint64) {
	for ; n > 0 && local%64 != 0; n-- {
		changed[local/64] |= 1 << (local % 64)
		local++
	}
	for ; n >= 64; n -= 64 {
		changed[local/64] = ^uint64(0)
		local += 64
	}
	for ; n > 0; n-- {
		changed[local/64] |= 1 << (local % 64)
		local++
	}
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

// syncPinned fsyncs every block's current files that are not yet known
// durable, then the store directory, so the directory entries that name
// those files are durable too — the group fsync a manifest write stands
// behind: at most two per block, its base and its delta, and a base that
// earlier checkpoints pinned is already synced.
// Write-behind spills skip the per-file fsync (the eviction path's
// dominant cost), so durability is established here instead, once per
// checkpoint instead of once per spill, and only for the files the
// manifest is about to pin. Must run after quiesce: the files have to be
// fully written before they can be synced.
func (m *blockManager) syncPinned() error {
	for _, b := range m.blocks {
		if b.files.base != 0 && b.synced.base != b.files.base {
			if err := m.store.sync(b.idx, b.files.base, false); err != nil {
				return err
			}
			b.synced.base = b.files.base
		}
		if b.files.delta != 0 && b.synced.delta != b.files.delta {
			if err := m.store.sync(b.idx, b.files.delta, true); err != nil {
				return err
			}
			b.synced.delta = b.files.delta
		}
	}
	return db.SyncDir(m.store.dir)
}

// retireManifestPins moves the manifest pin of every block to its current
// files and deletes the files only the previous manifest kept alive.
// Called after a manifest write lands.
func (m *blockManager) retireManifestPins() {
	for _, b := range m.blocks {
		if p := b.pinned.base; p != 0 && p != b.files.base {
			m.store.remove(b.idx, p, false)
		}
		if p := b.pinned.delta; p != 0 && p != b.files.delta {
			m.store.remove(b.idx, p, true)
		}
		b.pinned = b.files
	}
}

// load brings b's current generation back into core: from its
// prefetch when one of that generation was issued, otherwise by
// running the read step on demand.
func (m *blockManager) load(b *block) error {
	// Once the write-behind pipeline has failed, the generation this load
	// wants may never have reached the disk — surface the original write
	// error, not the confusing missing-file read error it would cause.
	if err := m.wb.firstError(); err != nil {
		return err
	}
	if j := m.pfJobs[b.idx]; j != nil {
		m.pfJobs[b.idx] = nil
		c := startSpillClock()
		<-j.done
		c.lap(&m.stats.StallTime)
		defer m.pf.release(j)
		// A stale generation (the block was respilled after the hint was
		// issued — cannot happen today because respilling requires a
		// load, which consumes the hint first, but guarded regardless) is
		// a miss, served by the demand read below.
		if j.gen == b.gen {
			if err := m.reload(b, j); err != nil {
				return err
			}
			m.stats.PrefetchHits++
			return nil
		}
	}
	j := &m.demand
	j.block, j.gen, j.files = b.idx, b.gen, b.files
	m.wb.fetch(j)
	m.stats.StallTime += j.fence
	m.stats.ReadTime += j.read
	m.stats.DecodeTime += j.decode
	return m.reload(b, j)
}

// reload is the restore step of every load, prefetched or demand:
// restore the fetched image into b, restore its change record from the
// delta's index, and count the reload.
func (m *blockManager) reload(b *block, j *readJob) error {
	if err := restoreState(b.w, j); err != nil {
		return err
	}
	b.changed = make([]uint64, (b.w.ShardSize()+63)/64)
	for _, r := range j.delta.runs {
		markChanged(b.changed, uint64(r.start), uint64(r.n))
	}
	b.baseBytes = j.baseBytes
	m.stats.Reloaded++
	m.stats.SpillBytesRead += uint64(j.n)
	return nil
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
	j.block, j.gen, j.files = b.idx, b.gen, b.files
	m.pf.submit(j)
	m.pfJobs[b.idx] = j
	m.stats.PrefetchIssued++
	return true
}

// Visit implements ra.Residency: one residency pass over the blocks of
// order. It opens a scheduling epoch whose touch set is exactly these
// blocks; each is then pinned and made resident before fn lands its
// parked runs and works on it, while the prefetcher reads ahead along
// the rest of the order and makeRoom evicts outside it.
func (m *blockManager) Visit(order []int, fn func(int, []ra.UpdateRun)) error {
	m.epoch++
	for _, i := range order {
		m.blocks[i].touchEpoch = m.epoch
	}
	// The read-ahead cursor never moves backwards, so a pass issues its
	// prefetches in O(len(order)) total, as far as free buffers allow.
	ahead := 0
	for k, i := range order {
		for ahead = max(ahead, k+1); ahead < len(order) && m.prefetch(m.blocks[order[ahead]]); {
			ahead++
		}
		b := m.blocks[i]
		b.pins++
		if err := m.ensureResident(b); err != nil {
			b.pins--
			return err
		}
		m.pendingRuns -= uint64(len(b.pending))
		b.dirty = true
		fn(i, b.pending)
		b.pending = b.pending[:0]
		b.pins--
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

// Parked implements ra.Residency.
func (m *blockManager) Parked(i int) int { return len(m.blocks[i].pending) }

// Land implements ra.Residency: runs for a resident block are applied at
// once, and their positions entered in the change record, the others
// parked until the block's next visit. Order within a wave is irrelevant
// to the result (updates commute), so parking keeps the database
// bit-identical to an in-core solve. HostSolve lands a block's
// self-owned updates here too, so the record sees every write.
func (m *blockManager) Land(i int, runs []ra.UpdateRun) {
	b := m.blocks[i]
	if b.w.StateResident() {
		for _, run := range runs {
			b.w.ApplyRun(run)
			if b.changed != nil {
				markChanged(b.changed, m.part.Local(run.Base), uint64(run.Count))
			}
		}
		b.dirty = true
		return
	}
	b.pending = append(b.pending, runs...)
	m.notePending(uint64(len(runs)))
}

// notePending accounts n update runs parked on a non-resident block.
func (m *blockManager) notePending(n uint64) {
	m.pendingRuns += n
	if m.pendingRuns > m.stats.PeakPendingRuns {
		m.stats.PeakPendingRuns = m.pendingRuns
	}
}

// Drop implements ra.Residency: a collected block is dropped at once.
// The final pass never comes back to it, so spilling its state to make
// room for a later block would write a generation nothing reads.
func (m *blockManager) Drop(i int) { m.drop(m.blocks[i]) }

// WaveEnd implements ra.Residency. The wave barrier is where
// write-behind failures surface: a spill that failed since the last
// barrier aborts here — one wave after a synchronous spill would have,
// with the store in the same resumable state (nothing superseded was
// deleted). A pause pins its wave with one manifest, periodic or not.
// Between the barrier and the next pass the spill store is otherwise
// idle: the prefetcher warms the blocks the next pass will visit.
func (m *blockManager) WaveEnd(waves int, reverse bool) error {
	if err := m.wb.firstError(); err != nil {
		return err
	}
	every := m.e.CheckpointEvery
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	pause := m.e.StopAfterWaves > 0 && waves-m.resumedAt >= m.e.StopAfterWaves
	if pause || every > 0 && waves%every == 0 {
		if err := m.checkpoint(waves); err != nil {
			return err
		}
	}
	if pause {
		return ra.ErrPaused
	}
	m.prefetchNextWave(reverse)
	return nil
}

// checkpoint writes a durable manifest pinning the solve after waves
// waves.
func (m *blockManager) checkpoint(waves int) error {
	if err := m.spillAllDirty(); err != nil {
		return err
	}
	// Quiesce the write-behind queue, then group-fsync the generations
	// this manifest will pin: write-behind spills defer their fsync to
	// exactly this fence, so a manifest only ever names durable files.
	if err := m.quiesce(); err != nil {
		return err
	}
	if err := m.syncPinned(); err != nil {
		return err
	}
	mf, err := m.manifestSnapshot(uint64(waves))
	if err != nil {
		return err
	}
	if err := m.store.failpoint(false); err != nil {
		return err
	}
	if err := writeManifest(filepath.Join(m.store.dir, ManifestName), mf); err != nil {
		return err
	}
	m.retireManifestPins()
	m.stats.Checkpoints++
	return nil
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
		b.files = files{mb.base, mb.delta}
		b.gen = max(mb.base, mb.delta)
		b.pinned = b.files
		b.synced = b.files // pinned files were synced before the manifest landed
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
		if b.files.base == 0 {
			return nil, fmt.Errorf("oocore: manifest snapshot of block %d with no spill generation", i)
		}
		mf.blocks[i] = entryOf(b.w, b.files, b.pending)
	}
	return mf, nil
}
