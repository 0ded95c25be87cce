package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"retrograde/internal/game"
	"retrograde/internal/oocore"
	"retrograde/internal/ra"
)

// Distributed checkpointing saves each node's shard at the entry of a
// checkpoint wave — the one moment its state is exactly "all waves < w
// complete, wave w not started", before BeginWave and before stashed
// wave-w traffic is applied. Re-running wave w regenerates every
// in-flight batch, so nothing on the wire needs saving.
//
// A node's checkpoint is an out-of-core store holding one shard, its own
// (oocore.SaveShard): a directory ckpt-w<wave>-node-<id> whose manifest,
// written last, is the commit point and records the partition, the wave
// about to run and the coordinator's productive-wave counter. A directory
// without a manifest never committed: resume ignores it, pruning removes
// it.
//
// Nodes reach a checkpoint wave at slightly different times, and a crash
// can land between one node's commit and another's; each node therefore
// keeps its previous checkpoint beside the newest. Because the
// coordinator only starts wave w after every node finished wave w-1,
// whenever any node has committed wave w, all nodes have committed the
// checkpoint before it — so the newest wave committed on every node is a
// consistent global state, and resume picks exactly that.

func ckptName(wave, node int) string {
	return fmt.Sprintf("ckpt-w%08d-node-%03d", wave, node)
}

func (e Engine) ckptEvery() int {
	if e.CheckpointEvery > 0 {
		return e.CheckpointEvery
	}
	return 8
}

// writeCheckpoint saves this node's state at the entry of wave (about
// to run), then prunes its directories older than the previous
// checkpoint and any that never committed.
func (ep *endpoint) writeCheckpoint(wave int) error {
	dir := ep.eng.CheckpointDir
	err := oocore.SaveShard(filepath.Join(dir, ckptName(wave, ep.id)), ep.node.Worker(), uint64(wave), uint64(ep.node.Waves()))
	if err != nil {
		return fmt.Errorf("checkpoint at wave %d: %w", wave, err)
	}
	for w, committed := range listCheckpoints(dir, ep.id) {
		if w < wave-ep.eng.ckptEvery() || !committed {
			os.RemoveAll(filepath.Join(dir, ckptName(w, ep.id)))
		}
	}
	return nil
}

// listCheckpoints maps the waves node has checkpoint directories for to
// whether each committed — holds a manifest. A manifest that cannot be
// read counts as committed, so resume reports it rather than passing it
// over.
func listCheckpoints(dir string, node int) map[int]bool {
	waves := map[int]bool{}
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("ckpt-w*-node-%03d", node)))
	for _, m := range matches {
		var w, id int
		if _, err := fmt.Sscanf(filepath.Base(m), "ckpt-w%d-node-%d", &w, &id); err == nil && filepath.Base(m) == ckptName(w, id) {
			_, err := os.Stat(filepath.Join(m, oocore.ManifestName))
			waves[w] = !errors.Is(err, os.ErrNotExist)
		}
	}
	return waves
}

// resumeState is a consistent global checkpoint loaded from disk.
type resumeState struct {
	wave    int // the wave to (re-)run first
	waves   int // coordinator's productive-wave counter at that point
	workers []*ra.Worker
}

// loadResume finds the newest wave committed by every node and restores
// all p workers from it. Returns nil when the directory holds no
// committed checkpoint (fresh start); errors when checkpoints exist but
// are unusable, rather than silently recomputing a multi-hour run.
func loadResume(dir string, g game.Game, p int) (*resumeState, error) {
	if err := refuseRetired(dir); err != nil {
		return nil, err
	}
	var common []int
	for i := 0; i < p; i++ {
		var have []int
		for w, committed := range listCheckpoints(dir, i) {
			if committed && (i == 0 || slices.Contains(common, w)) {
				have = append(have, w)
			}
		}
		common = have
	}
	if len(common) == 0 {
		return nil, startOver(dir, g, p)
	}
	wave := slices.Max(common)

	st := &resumeState{wave: wave, workers: make([]*ra.Worker, p)}
	for i := 0; i < p; i++ {
		path := filepath.Join(dir, ckptName(wave, i))
		w, saved, waves, err := oocore.RestoreShard(path, g)
		if err == nil {
			err = st.check(w, int(saved), i, p)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if i == 0 {
			st.waves = int(waves) // the counter is the coordinator's
		}
		st.workers[i] = w
	}
	return st, nil
}

// startOver handles a directory where no wave is committed on all p
// nodes. Every node commits a checkpoint wave before any node can reach
// the next, so if each committed store is of this solve's p-node mesh,
// the crash came while the first checkpoint wave was committing: nothing
// resumable was lost, and the stores are removed for a fresh start. A
// store that cannot be read, or is of another game or node count, is an
// error instead.
func startOver(dir string, g game.Game, p int) error {
	matches, _ := filepath.Glob(filepath.Join(dir, "ckpt-w*-node-*"))
	for _, m := range matches {
		if info, err := oocore.InspectDir(m); err != nil {
			return err
		} else if info.HasManifest && (info.Shards != p || info.Size != g.Size()) {
			return fmt.Errorf("checkpoints in %s cover no wave on all %d nodes: %s is shard %d of a %d-node mesh over %d positions, this solve has %d",
				dir, p, m, info.Shard, info.Shards, info.Size, g.Size())
		}
	}
	clearCheckpoints(dir)
	return nil
}

// check holds node i's restored worker, saved at the entry of wave saved,
// to the mesh the resume is building.
func (st *resumeState) check(w *ra.Worker, saved, i, p int) error {
	part := w.Partition()
	switch {
	case part.Workers() != p:
		return fmt.Errorf("checkpoint is for %d nodes, engine has %d", part.Workers(), p)
	case w.ID() != i:
		return fmt.Errorf("checkpoint holds node %d's shard, want node %d", w.ID(), i)
	case saved != st.wave:
		return fmt.Errorf("checkpoint is for wave %d, directory name says %d", saved, st.wave)
	case i > 0 && part.Group() != st.workers[0].Partition().Group():
		return fmt.Errorf("checkpoint partition group %d differs from node 0's %d", part.Group(), st.workers[0].Partition().Group())
	}
	return nil
}

// refuseRetired fails on a checkpoint file of the retired mesh format —
// one ckpt-w*-node-*.racp file per node and wave, versions 1 to 3 —
// naming the file and the version its header claims. Such a file is
// never read as state nor removed: the solve that wrote it can only be
// finished by the build that wrote it.
func refuseRetired(dir string) error {
	old, _ := filepath.Glob(filepath.Join(dir, "ckpt-w*-node-*.racp"))
	if len(old) == 0 {
		return nil
	}
	var head [8]byte
	f, err := os.Open(old[0])
	if err == nil {
		_, err = io.ReadFull(f, head[:])
		f.Close()
	}
	if err != nil {
		return fmt.Errorf("%s: retired mesh checkpoint format: %w", old[0], err)
	}
	return fmt.Errorf("%s: mesh checkpoint file of version %d, a retired format; finish that solve with the build that wrote it, or remove the file to start over",
		old[0], binary.LittleEndian.Uint32(head[4:]))
}

// clearCheckpoints removes the solve's checkpoint directories after a
// successful run; a later solve in the same directory starts fresh.
func clearCheckpoints(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "ckpt-w*-node-*"))
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && fi.IsDir() {
			os.RemoveAll(m)
		}
	}
}
