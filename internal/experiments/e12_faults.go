package experiments

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"retrograde/internal/faultnet"
	"retrograde/internal/ra"
	"retrograde/internal/remote"
	"retrograde/internal/stats"
)

// E12Faults drills the hardened TCP mesh: what failure detection and
// crash recovery buy when something fails. The paper's cluster runs
// assume no processor fails for the 50-minute solve; this table is the
// deployable answer. Scenarios: the fault-free hardened baseline
// (per-read deadlines plus heartbeats, always on), checkpointing, a wire
// that shreds every frame into short reads and writes, a wedged node
// (open socket, no bytes — the failure mode that hangs an unhardened
// solve forever), and a node killed mid-run with the solve resumed from
// its checkpoints. Every completed database is cross-checked against the
// sequential engine. No cell depends on host timing or on which
// goroutine ran first, so the table is as reproducible as the
// virtual-time ones.
func E12Faults(env *Env) (*stats.Table, error) {
	slice := env.Headline()
	want := ra.SolveSequential(slice)
	t := stats.NewTable(
		fmt.Sprintf("E12: fault drills on the real TCP mesh (awari-%d, 4 nodes)", env.Scale.Stones),
		"scenario", "outcome", "check")

	check := func(res *ra.Result) string {
		if res == nil {
			return "no database"
		}
		for i := range want.Values {
			if res.Values[i] != want.Values[i] {
				return "MISMATCH"
			}
		}
		return "identical to sequential"
	}

	// Fault-free baseline: the hardening is unconditional.
	base := remote.Engine{Workers: 4, Batch: 256}
	res, rep, err := base.SolveDetailed(slice)
	if err != nil {
		return nil, err
	}
	t.Row("fault-free (deadlines + heartbeats)", "solved", check(res))

	// Checkpointing: persistence every 4 waves on top of the solve.
	ckptDir, err := os.MkdirTemp("", "e12-ckpt-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	ck := base
	ck.CheckpointDir = ckptDir
	ck.CheckpointEvery = 4
	if res, _, err = ck.SolveDetailed(slice); err != nil {
		return nil, err
	}
	t.Row("checkpoints every 4 waves", "solved", check(res))

	// A wire that misbehaves without failing: every frame torn into short
	// reads and writes on every connection.
	shred := base
	shred.WrapConn = func(local, peer int, c net.Conn) net.Conn {
		return faultnet.Plan{Seed: int64(local*8 + peer), MaxRead: 7, MaxWrite: 9}.Wrap(c)
	}
	if res, _, err = shred.SolveDetailed(slice); err != nil {
		return nil, err
	}
	t.Row("short reads/writes, all conns", "solved", check(res))

	// A wedged node: the 1<->2 conn goes silent after one frame while
	// staying open. Unhardened code hangs forever; the deadline detector
	// must produce a typed NodeFailedError within a few timeouts, and it
	// must name an end of the wedged pair. Either end may detect first,
	// so the row prints the check, not the id.
	const wedgeTimeout = 2 * time.Second
	wedged := base
	wedged.Timeout = wedgeTimeout
	wedged.WrapConn = wrapMeshPair(1, 2, faultnet.Plan{CutAfter: 1, Wedge: true})
	start := time.Now()
	_, _, wedgeErr := wedged.SolveDetailed(slice)
	wedgeWall := time.Since(start)
	var nf *remote.NodeFailedError
	switch {
	case wedgeErr == nil:
		t.Row("wedged node (timeout 2s)", "SOLVE SURVIVED A WEDGE", "unexpected")
	case !errors.As(wedgeErr, &nf):
		t.Row("wedged node (timeout 2s)", "UNTYPED ERROR: "+wedgeErr.Error(), "unexpected")
	case nf.Node != 1 && nf.Node != 2:
		t.Row("wedged node (timeout 2s)", "NodeFailedError blames a healthy node", "unexpected")
	case wedgeWall > 5*wedgeTimeout:
		t.Row("wedged node (timeout 2s)", "typed NodeFailedError", "SLOW: over 5x timeout")
	default:
		t.Row("wedged node (timeout 2s)", "typed NodeFailedError", "names 1 or 2, in bound")
	}

	// Kill and resume: cut the 1<->2 conn roughly halfway through its own
	// traffic (the full mesh splits rep.Bytes over 6 pairs), then re-run
	// in the same checkpoint directory. The resumed database must be
	// bit-identical. Each node keeps its newest checkpoint and the one
	// before it, and the cut lands past the second wave, so the count of
	// directories left is fixed by the protocol: two per node.
	resumeDir, err := os.MkdirTemp("", "e12-resume-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(resumeDir)
	pairs := int64(4 * 3 / 2)
	killed := base
	killed.Timeout = wedgeTimeout
	killed.CheckpointDir = resumeDir
	killed.CheckpointEvery = 1
	killed.WrapConn = wrapMeshPair(1, 2, faultnet.Plan{CutAfter: int64(rep.Bytes) / pairs / 2})
	if _, _, err := killed.SolveDetailed(slice); err == nil {
		t.Row("killed mid-run, resumed", "CUT DID NOT KILL THE SOLVE", "unexpected")
	} else {
		left, _ := os.ReadDir(resumeDir)
		resumed := killed
		resumed.WrapConn = nil
		if res, _, err = resumed.SolveDetailed(slice); err != nil {
			return nil, fmt.Errorf("resume after kill: %w", err)
		}
		t.Row("killed mid-run, resumed",
			fmt.Sprintf("killed, resumed from %d checkpoint directories", len(left)),
			check(res))
	}

	t.Note("hardening (per-read deadlines + heartbeats + write deadlines) is always on; a solve shorter than Timeout/4 (3.75s by default) sends no heartbeat")
	t.Note("resume re-solves only the waves after the newest common checkpoint")
	return t, nil
}

// wrapMeshPair applies a fault plan to both endpoints of one mesh
// connection and leaves every other connection clean.
func wrapMeshPair(a, b int, p faultnet.Plan) func(int, int, net.Conn) net.Conn {
	return func(local, peer int, c net.Conn) net.Conn {
		if (local == a && peer == b) || (local == b && peer == a) {
			return p.Wrap(c)
		}
		return c
	}
}
