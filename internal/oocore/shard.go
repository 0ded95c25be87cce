package oocore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// A store is the durable form of workers' state, whoever wrote it: spill
// files holding the per-position streams, pinned by a manifest holding
// the rest. The out-of-core engine keeps every shard of its partition in
// one store; SaveShard and RestoreShard keep one worker — a TCP-mesh
// node's shard — as a store of one shard, so both engines write and read
// spill files through the same write step (writeback.commit) and read
// step (writeback.fetch), and restore through restoreWorker and
// restoreState and nothing else.

// restoreWorker rebuilds the worker of manifest entry mb under part with
// its state left on disk, after the checks every resume runs before it
// trusts an entry: the position count against the shard size, a pinned
// base and a delta newer than it, queue entries and parked runs inside
// the shard. path names the manifest in errors.
func restoreWorker(g game.Game, part *ra.Partition, kern ra.Kernel, mb *manifestBlock, path string) (*ra.Worker, error) {
	i := mb.shard
	w, err := ra.NewWorkerKernel(g, part, i, kern)
	if err != nil {
		return nil, err
	}
	w.DropState()
	n := w.ShardSize()
	if mb.stats.Positions != n {
		return nil, corrupt(path, "block %d records %d positions, want %d", i, mb.stats.Positions, n)
	}
	if mb.base == 0 {
		return nil, corrupt(path, "block %d has no pinned spill generation", i)
	}
	if mb.delta != 0 && mb.delta <= mb.base {
		return nil, corrupt(path, "block %d pins delta generation %d against the newer base %d", i, mb.delta, mb.base)
	}
	for _, q := range [][]uint64{mb.queue, mb.next} {
		for _, l := range q {
			if l >= n {
				return nil, corrupt(path, "block %d queues local index %d beyond shard size %d", i, l, n)
			}
		}
	}
	// A run lands on consecutive local indices, so it must stay inside
	// one of the shard's groups.
	group := part.Group()
	for _, run := range mb.pending {
		c := uint64(run.Count)
		if run.Base >= part.Size() || part.Owner(run.Base) != i || run.Base%group+c > group || part.Local(run.Base)+c > n {
			return nil, corrupt(path, "block %d pending run [%d,+%d) outside its shard", i, run.Base, run.Count)
		}
	}
	w.SetFrontier(mb.queue, mb.next)
	w.Stats = mb.stats
	return w, nil
}

// entryOf is the manifest entry pinning the files f of w's state, with
// the runs parked for it.
func entryOf(w *ra.Worker, f files, pending []ra.UpdateRun) manifestBlock {
	queue, next := w.Frontier()
	return manifestBlock{shard: w.ID(), base: f.base, delta: f.delta, stats: w.Stats, queue: queue, next: next, pending: pending}
}

// restoreState checks a fetched spill image — the read's error, then
// block, kernel, length — against the worker it is loaded into, then
// restores it.
func restoreState(w *ra.Worker, j *readJob) error {
	switch {
	case j.err != nil:
		return j.err
	case j.blk != w.ID():
		return corrupt(j.path, "holds block %d, want %d", j.blk, w.ID())
	case j.kern != w.Kernel():
		return corrupt(j.path, "written by the %v kernel, want %v", j.kern, w.Kernel())
	case uint64(len(j.vals)) != w.ShardSize():
		return corrupt(j.path, "holds %d positions, want %d", len(j.vals), w.ShardSize())
	}
	if err := w.RestoreState(j.vals, j.meta); err != nil {
		return corrupt(j.path, "%v", err)
	}
	return nil
}

// SaveShard saves worker w, which must be between waves, in dir as a
// store of one shard: w's own, under w's partition. wave is the wave
// about to run, at least 1 (wave 0 initialises; a nonzero wave is what
// marks a store as a mesh node's), and waves the productive waves so
// far. The spill file, a full image, is
// written and synced first and the manifest, the store's commit point,
// last; saving over a store writes the next generation and deletes the
// previous one only once the new manifest is durable, so a crash at any
// instant leaves a complete store, old or new. dir's parent must exist.
func SaveShard(dir string, w *ra.Worker, wave, waves uint64) error {
	if wave == 0 {
		return errors.New("oocore: a shard store is saved at the entry of an expand wave, never wave 0")
	}
	if err := os.Mkdir(dir, 0o755); err == nil {
		if err := db.SyncDir(filepath.Dir(dir)); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrExist) {
		return fmt.Errorf("oocore: creating shard store: %w", err)
	}
	store := &spillStore{dir: dir}
	mpath := filepath.Join(dir, ManifestName)
	me, part := w.ID(), w.Partition()
	var old uint64
	if prev, err := readManifest(mpath); err == nil && prev.blocks[0].shard == me {
		old = prev.blocks[0].base
	}
	wb := newWriteback(store, 0)
	j, _ := wb.acquire()
	j.vals, j.meta = w.PackState(nil, nil)
	j.block, j.kern, j.gen, j.kind = me, w.Kernel(), old+1, kindBase
	if err := wb.submit(j); err != nil {
		return err
	}
	if err := db.SyncDir(dir); err != nil {
		return err
	}
	mf := &manifest{
		size: part.Size(), kernel: w.Kernel(), shards: uint32(part.Workers()), group: part.Group(),
		waves: waves, wave: wave, blocks: []manifestBlock{entryOf(w, files{base: old + 1}, nil)},
	}
	if err := writeManifest(mpath, mf); err != nil {
		return err
	}
	if old != 0 {
		store.remove(me, old, false)
	}
	return nil
}

// RestoreShard loads the store SaveShard left in dir as a worker of game
// g, under the partition the store records, and returns it with the wave
// and waves it was saved at. A directory without a manifest — a save
// that never committed — returns an error satisfying
// errors.Is(err, os.ErrNotExist); a store of another game, of more than
// one shard, or one that fails any restore check is a *CorruptSpillError.
func RestoreShard(dir string, g game.Game) (w *ra.Worker, wave, waves uint64, err error) {
	mpath := filepath.Join(dir, ManifestName)
	mf, err := readManifest(mpath)
	if err != nil {
		return nil, 0, 0, err
	}
	switch {
	case mf.size != g.Size():
		return nil, 0, 0, corrupt(mpath, "holds a %d-position game, this one has %d", mf.size, g.Size())
	case len(mf.blocks) != 1 || len(mf.blocks[0].pending) != 0:
		return nil, 0, 0, corrupt(mpath, "holds %d shards, want one with no parked runs", len(mf.blocks))
	}
	part, err := ra.NewPartition(mf.size, int(mf.shards), mf.group)
	if err != nil {
		return nil, 0, 0, corrupt(mpath, "%v", err)
	}
	mb := &mf.blocks[0]
	if w, err = restoreWorker(g, part, mf.kernel, mb, mpath); err != nil {
		return nil, 0, 0, err
	}
	j := &readJob{block: mb.shard, files: files{mb.base, mb.delta}}
	newWriteback(&spillStore{dir: dir}, 0).fetch(j)
	if err := restoreState(w, j); err != nil {
		return nil, 0, 0, err
	}
	return w, mf.wave, mf.waves, nil
}
