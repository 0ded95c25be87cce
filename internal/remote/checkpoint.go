package remote

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// Distributed checkpointing rides on ra's worker snapshot: each node
// serialises its own shard at the entry of a checkpoint wave — the one
// moment its state is exactly "all waves < w complete, wave w not
// started", before BeginWave and before stashed wave-w traffic is
// applied — under a small mesh header (node count, node id, partition
// group, wave, the coordinator's productive-wave counter). Re-running
// wave w regenerates every in-flight batch, so nothing on the wire needs
// saving.
//
// Nodes reach a checkpoint wave at slightly different times, and a crash
// can land between one node's write and another's; each node therefore
// keeps its previous checkpoint beside the newest. Because the
// coordinator only starts wave w after every node finished wave w-1,
// whenever any node has written wave w, all nodes have written the
// checkpoint before it — so the newest wave present on every node is a
// consistent global state, and resume picks exactly that.

// meshHeader precedes the ra snapshot in every checkpoint file
// (little-endian, fixed width). Version 2 replaced the body (a scalar-only
// per-array format that carried its own shard header) with
// ra.WriteSnapshot and moved the shard identity here. Version 3 bodies keep
// the loop flag in the state, not a list; a version 2 body's stale
// counters would read as loop flags, so older directories fail the solve
// rather than being reinterpreted.
type meshHeader struct {
	Magic   [4]byte
	Version uint32
	Nodes   uint32 // mesh size
	Node    uint32 // whose shard follows
	Group   uint64 // partition group size
	Wave    uint64 // the wave about to run
	Waves   uint64 // coordinator's productive-wave counter
}

const meshCkptVersion = 3

var meshCkptMagic = [4]byte{'R', 'M', 'C', 'P'}

func ckptName(wave, node int) string {
	return fmt.Sprintf("ckpt-w%08d-node-%03d.racp", wave, node)
}

func (e Engine) ckptEvery() int {
	if e.CheckpointEvery > 0 {
		return e.CheckpointEvery
	}
	return 8
}

// writeCheckpoint persists this node's state at the entry of wave (about
// to run; waves counts the coordinator's productive waves so far), then
// prunes everything older than the previous checkpoint.
func (ep *endpoint) writeCheckpoint(wave int) error {
	dir, every := ep.eng.CheckpointDir, ep.eng.ckptEvery()
	path := filepath.Join(dir, ckptName(wave, ep.id))
	err := ra.WriteFileAtomic(path, func(out io.Writer) error {
		head := meshHeader{meshCkptMagic, meshCkptVersion, uint32(len(ep.conns)), uint32(ep.id), ep.group, uint64(wave), uint64(ep.node.Waves())}
		if err := binary.Write(out, binary.LittleEndian, head); err != nil {
			return err
		}
		return ep.node.Worker().WriteSnapshot(out)
	})
	if err != nil {
		return fmt.Errorf("checkpoint at wave %d: %w", wave, err)
	}
	// Keep this checkpoint and the previous one; anything older can no
	// longer be the newest-on-every-node wave.
	for w := range listCheckpoints(dir, ep.id) {
		if w < wave-every {
			os.Remove(filepath.Join(dir, ckptName(w, ep.id)))
		}
	}
	return nil
}

// listCheckpoints returns the checkpoint waves present for one node.
func listCheckpoints(dir string, node int) map[int]bool {
	waves := map[int]bool{}
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("ckpt-w*-node-%03d.racp", node)))
	for _, m := range matches {
		var w, id int
		if _, err := fmt.Sscanf(filepath.Base(m), "ckpt-w%d-node-%d.racp", &w, &id); err == nil && id == node {
			waves[w] = true
		}
	}
	return waves
}

// resumeState is a consistent global checkpoint loaded from disk.
type resumeState struct {
	wave    int           // the wave to (re-)run first
	waves   int           // coordinator's productive-wave counter at that point
	part    *ra.Partition // the partition the checkpointed run used
	workers []*ra.Worker
}

// loadResume finds the newest wave checkpointed by every node and
// restores all p workers from it. Returns nil when the directory holds
// no checkpoints (fresh start); errors when checkpoints exist but are
// unusable, rather than silently recomputing a multi-hour run.
func loadResume(dir string, g game.Game, p int) (*resumeState, error) {
	common := listCheckpoints(dir, 0)
	for i := 1; i < p; i++ {
		have := listCheckpoints(dir, i)
		for w := range common {
			if !have[w] {
				delete(common, w)
			}
		}
	}
	if len(common) == 0 {
		if any, _ := filepath.Glob(filepath.Join(dir, "ckpt-w*-node-*.racp")); len(any) > 0 {
			return nil, fmt.Errorf("checkpoints in %s cover no wave on all %d nodes (different node count?)", dir, p)
		}
		return nil, nil
	}
	waves := make([]int, 0, len(common))
	for w := range common {
		waves = append(waves, w)
	}
	sort.Ints(waves)
	wave := waves[len(waves)-1]

	st := &resumeState{wave: wave, workers: make([]*ra.Worker, p)}
	for i := 0; i < p; i++ {
		path := filepath.Join(dir, ckptName(wave, i))
		if err := st.loadNode(path, g, i, p); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return st, nil
}

func (st *resumeState) loadNode(path string, g game.Game, i, p int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	in := bufio.NewReader(f)
	var head meshHeader
	if err := binary.Read(in, binary.LittleEndian, &head); err != nil {
		return err
	}
	switch {
	case head.Magic != meshCkptMagic:
		return fmt.Errorf("bad mesh checkpoint magic %q", head.Magic[:])
	case head.Version != meshCkptVersion:
		return fmt.Errorf("unsupported mesh checkpoint version %d (this build reads version %d)", head.Version, meshCkptVersion)
	case int(head.Nodes) != p:
		return fmt.Errorf("checkpoint is for %d nodes, engine has %d", head.Nodes, p)
	case int(head.Node) != i:
		return fmt.Errorf("checkpoint holds node %d's shard, want node %d", head.Node, i)
	case int(head.Wave) != st.wave:
		return fmt.Errorf("checkpoint body is for wave %d, file name says %d", head.Wave, st.wave)
	}
	if i == 0 {
		st.waves = int(head.Waves)
		if st.part, err = ra.NewPartition(g.Size(), p, head.Group); err != nil {
			return err
		}
	} else if head.Group != st.part.Group() {
		return fmt.Errorf("checkpoint partition group %d differs from node 0's %d", head.Group, st.part.Group())
	}
	st.workers[i], err = ra.ReadSnapshot(g, st.part, i, in)
	return err
}

// clearCheckpoints removes the solve's checkpoint files after a
// successful run; a later solve in the same directory starts fresh.
func clearCheckpoints(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "ckpt-w*-node-*.racp"))
	for _, m := range matches {
		os.Remove(m)
	}
}
