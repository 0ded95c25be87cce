// Package oocore implements the out-of-core solving tier: retrograde
// analysis whose resident per-position state is capped at an explicit
// byte budget, far below the rung's in-core footprint. The rung is split
// into contiguous blocks, each backed by the ordinary worker state
// machine and solved by ra's host driver on one goroutine; this package
// supplies only where a block's state lives (blockManager, an
// ra.Residency). A block's state array is the unit of residency, spilled
// to disk zdb-compressed when cold and reloaded on demand (LRU with pins,
// the serving cache's policy). Updates for a spilled block are parked and
// land on its next visit, so the database, wave count and loop set stay
// bit-identical to the in-core engines, while each wave loads every block
// it touches at most once.
//
// Spills double as checkpoints: a periodic manifest pins one complete
// generation of every block plus the solve's frontier, so an interrupted
// run — crash, power loss, deliberate pause — resumes from the last wave
// boundary for free. The same store holding one shard is a TCP-mesh
// node's checkpoint (SaveShard, RestoreShard). This is the scale-out
// answer to the paper's ">600 MByte on a uniprocessor" problem on a
// single machine: trade memory for spill-store bandwidth instead of for
// cluster nodes.
package oocore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// DefaultCheckpointEvery is the wave interval between durable manifests
// when the Engine does not pin one.
const DefaultCheckpointEvery = 8

// Engine is the out-of-core solver. MemLimit and Dir are required; the
// zero values of everything else pick sensible defaults.
type Engine struct {
	// MemLimit caps resident per-position block state, in bytes. Pinned
	// blocks (the block being expanded or landed on) may push usage over
	// the cap momentarily, so any positive cap makes progress; the
	// effective floor is two blocks. The cap governs block state only —
	// queues, parked runs and the final Result are the caller's memory.
	MemLimit uint64
	// Dir is the spill and checkpoint directory. A manifest left in it by
	// an interrupted run resumes that run; a completed solve clears it
	// unless KeepStore is set.
	Dir string
	// Kernel pins the wave kernel; KernelAuto resolves per game.
	Kernel ra.Kernel
	// BlockLen overrides positions per block. 0 sizes blocks so the rung
	// splits into ~32, keeping tiny test rungs spillable (see
	// autoBlockLen).
	BlockLen uint64
	// CheckpointEvery is the wave interval between durable manifests;
	// 0 means DefaultCheckpointEvery, negative disables periodic
	// manifests (one is still written when pausing).
	CheckpointEvery int
	// StopAfterWaves > 0 checkpoints and returns ra.ErrPaused after that
	// many additional waves — the crash-drill and budgeted-run hook.
	StopAfterWaves int
	// KeepStore leaves the spill files and manifest in place after a
	// completed solve instead of deleting them.
	KeepStore bool
	// Writeback is the write-behind queue depth: how many evicted blocks
	// may have encode+write in flight behind the wave. 0 picks
	// DefaultWritebackDepth; negative forces synchronous spilling: the
	// engine thread runs the same write step inline and fsyncs each
	// spill, and a failing write fails the spill that made it — the
	// behavior the bench row oocore.syncspill_s times. The solve is
	// bit-identical at any depth (TestOutOfCorePipelineParity).
	Writeback int
	// NoPrefetch disables the frontier-aware prefetcher, leaving reloads
	// demand-paged under pure LRU. The solve is bit-identical either
	// way.
	NoPrefetch bool

	// failSpillAfter > 0 injects errSimulatedCrash on the N-th spill
	// write — the crash-recovery tests' failpoint — or, with
	// failSpillKind set, on the first write after the N-th of that kind.
	failSpillAfter int
	failSpillKind  spillKind
}

// Name implements ra.Engine.
func (e Engine) Name() string {
	return fmt.Sprintf("out-of-core(cap=%d)", e.MemLimit)
}

// Solve implements ra.Engine.
func (e Engine) Solve(g game.Game) (*ra.Result, error) {
	r, _, err := e.SolveDetailed(g)
	return r, err
}

// autoBlockLen picks positions per block when the Engine does not: about
// 1/32 of the rung, rounded up to a multiple of 64 so SWAR word loops see
// aligned interiors, clamped so tiny rungs still split into several
// spillable blocks and huge rungs keep bounded per-block codec scratch.
func autoBlockLen(size uint64) uint64 {
	bl := (size + 31) / 32
	bl = (bl + 63) &^ 63
	if bl < 64 {
		bl = 64
	}
	if bl > 1<<16 {
		bl = 1 << 16
	}
	return bl
}

// SolveDetailed is Solve plus the spill counters the bench reports. On
// ra.ErrPaused the returned stats describe the partial run; the result
// is nil until a later call completes the solve.
func (e Engine) SolveDetailed(g game.Game) (*ra.Result, SpillStats, error) {
	r, m, err := e.solve(g)
	if m == nil {
		return r, SpillStats{}, err
	}
	return r, m.stats, err
}

// solve returns the block manager alongside the result so SolveDetailed
// reads its stats *after* the deferred pipeline shutdown has folded the
// writer-side counters — every exit path, error or not, reports
// consistent numbers.
func (e Engine) solve(g game.Game) (*ra.Result, *blockManager, error) {
	if e.MemLimit == 0 {
		return nil, nil, fmt.Errorf("oocore: MemLimit must be positive")
	}
	if e.Dir == "" {
		return nil, nil, fmt.Errorf("oocore: spill directory is required")
	}
	kern, err := ra.ResolveKernel(g, e.Kernel)
	if err != nil {
		return nil, nil, err
	}
	size := g.Size()
	blockLen := e.BlockLen
	if blockLen == 0 {
		blockLen = autoBlockLen(size)
	}
	nb := int((size + blockLen - 1) / blockLen)
	if nb < 1 {
		nb = 1
	}
	part, err := ra.NewPartition(size, nb, blockLen)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(e.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("oocore: creating spill directory: %w", err)
	}
	store := &spillStore{dir: e.Dir, failAfter: e.failSpillAfter, failAfterKind: e.failSpillKind}
	m := newBlockManager(g, kern, part, e.MemLimit, store)
	inCore, err := ra.InCoreStateBytes(g, kern)
	if err != nil {
		return nil, m, fmt.Errorf("oocore: sizing the in-core baseline: %w", err)
	}
	m.stats.InCoreBytes = inCore

	m.e = e
	mpath := filepath.Join(e.Dir, ManifestName)
	mf, err := readManifest(mpath)
	switch {
	case err == nil:
		// Entries are in increasing shard order, so nb of them for nb
		// shards are exactly blocks 0..nb-1.
		if mf.size != size || mf.kernel != kern || mf.group != blockLen || int(mf.shards) != nb || len(mf.blocks) != nb {
			return nil, m, corrupt(mpath,
				"manifest describes size=%d kernel=%v blockLen=%d blocks=%d of %d; this solve is size=%d kernel=%v blockLen=%d blocks=%d",
				mf.size, mf.kernel, mf.group, len(mf.blocks), mf.shards, size, kern, blockLen, nb)
		}
		if err := m.restore(mf, mpath); err != nil {
			return nil, m, err
		}
		m.resumedAt = int(mf.waves)
	case errors.Is(err, os.ErrNotExist):
	default:
		return nil, m, err
	}

	// The pipeline comes up after a resume has seeded the cumulative
	// counters (so the writer's byte count folds on top of them) and
	// before the blocks' initialisation, whose under-cap evictions are
	// the first spills worth overlapping. The deferred shutdown joins both
	// goroutines and folds the counters on every exit path.
	depth := e.Writeback
	if depth == 0 {
		depth = DefaultWritebackDepth
	}
	window := DefaultPrefetchWindow
	if e.NoPrefetch {
		window = 0
	}
	m.startPipeline(depth, window)
	defer m.closePipeline()

	result, err := ra.HostSolve(part, m, m.resumedAt)
	if err != nil {
		return nil, m, err
	}
	// Join the pipeline before touching the store's files: clear must not
	// race an in-flight write, and a write error still has to fail the
	// solve even on the last wave.
	m.closePipeline()
	if err := m.wb.firstError(); err != nil {
		return nil, m, err
	}
	if !e.KeepStore {
		if err := store.clear(); err != nil {
			return nil, m, err
		}
	}
	return result, m, nil
}

// StoreInfo summarises an on-disk store — what rastats -spill prints.
// An out-of-core spill directory holds every shard of its partition, one
// per block; a TCP-mesh checkpoint directory holds one node's shard.
type StoreInfo struct {
	Dir string
	// BlockFiles counts the block files present, all generations: base
	// images and deltas. SpillBytes is their total size, DeltaFiles and
	// DeltaBytes the deltas' share of both.
	BlockFiles  int
	SpillBytes  uint64
	DeltaFiles  int
	DeltaBytes  uint64
	HasManifest bool
	// Manifest header fields, valid when HasManifest:
	Size   uint64
	Kernel string
	Shards int    // shards in the partition the store was cut from
	Group  uint64 // partition group size: positions per block out of core
	Blocks int    // shards the store holds: all of them, or one
	Shard  int    // the lowest shard held: a mesh node's own
	Waves  uint64 // productive waves completed (a mesh node 0 counts them)
	Wave   uint64 // the mesh wave about to run: 0 out of core, so MeshNode
	// Pending counts parked cross-block runs recorded in the manifest.
	Pending uint64
	// PinnedDeltas counts the blocks whose manifest entry pins a delta
	// beside its base.
	PinnedDeltas int
	// The cumulative I/O counters the checkpointed solve had accumulated.
	SpillCounters
}

// MeshNode reports whether the store is a TCP-mesh node's checkpoint
// (SaveShard) rather than an out-of-core spill directory. Holding one
// shard does not tell them apart — a one-block out-of-core store does
// too — but only a mesh node records the wave about to run.
func (s StoreInfo) MeshNode() bool { return s.HasManifest && s.Wave != 0 }

// InspectDir summarises the spill store under dir without touching it.
func InspectDir(dir string) (StoreInfo, error) {
	info := StoreInfo{Dir: dir}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return info, fmt.Errorf("oocore: inspecting spill store: %w", err)
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		name := ent.Name()
		if !isStoreFile(name) {
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			// Silently skipping would undercount BlockFiles/SpillBytes —
			// a store inspector that cannot stat a block file must say so.
			return info, fmt.Errorf("oocore: inspecting spill block %s: %w", name, err)
		}
		info.BlockFiles++
		info.SpillBytes += uint64(fi.Size())
		if strings.HasSuffix(name, deltaSuffix) {
			info.DeltaFiles++
			info.DeltaBytes += uint64(fi.Size())
		}
	}
	mf, err := readManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return info, nil
		}
		return info, err
	}
	info.HasManifest = true
	info.Size = mf.size
	info.Kernel = mf.kernel.String()
	info.Shards = int(mf.shards)
	info.Group = mf.group
	info.Blocks = len(mf.blocks)
	info.Shard = mf.blocks[0].shard
	info.Waves = mf.waves
	info.Wave = mf.wave
	info.SpillCounters = mf.counters
	for i := range mf.blocks {
		info.Pending += uint64(len(mf.blocks[i].pending))
		if mf.blocks[i].delta != 0 {
			info.PinnedDeltas++
		}
	}
	return info, nil
}
