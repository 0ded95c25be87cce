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
// crash recovery cost when nothing fails, and what they buy when
// something does. The paper's cluster runs assume no processor fails for
// the 50-minute solve; this table is the deployable answer. Scenarios:
// the fault-free hardened baseline (per-read deadlines plus heartbeats,
// always on), the same solve with heartbeats disabled (isolating their
// cost — the target is under 5% overhead on the wire path of E8/E10),
// checkpointing, a wire that shreds every frame into short reads and
// writes, a wedged node (open socket, no bytes — the failure mode that
// hangs an unhardened solve forever), and a node killed mid-run with the
// solve resumed from its checkpoints. Every completed database is
// cross-checked against the sequential engine.
func E12Faults(env *Env) (*stats.Table, error) {
	slice := env.Headline()
	want := ra.SolveSequential(slice)
	t := stats.NewTable(
		fmt.Sprintf("E12: fault drills on the real TCP mesh (awari-%d, 4 nodes)", env.Scale.Stones),
		"scenario", "wall ms", "outcome", "check")

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

	// bestOf runs a fault-free configuration a few times and keeps the
	// fastest solve: the overhead comparison below needs walls steadier
	// than a single loopback run.
	bestOf := func(eng remote.Engine) (*ra.Result, *remote.Report, time.Duration, error) {
		var bres *ra.Result
		var brep *remote.Report
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			var res *ra.Result
			var rep *remote.Report
			var err error
			wall := wallTime(func() { res, rep, err = eng.SolveDetailed(slice) })
			if err != nil {
				return nil, nil, 0, err
			}
			if bres == nil || wall < best {
				bres, brep, best = res, rep, wall
			}
		}
		return bres, brep, best, nil
	}

	// Fault-free baseline: the hardening this PR makes unconditional.
	base := remote.Engine{Workers: 4, Batch: 256}
	res, rep, baseWall, err := bestOf(base)
	if err != nil {
		return nil, err
	}
	t.Row("fault-free (deadlines + heartbeats)", baseWall.Milliseconds(), "solved", check(res))

	// Same solve with the keep-alive traffic off, isolating its cost.
	bare := base
	bare.Heartbeat = -1
	bare.Timeout = time.Hour
	res, _, bareWall, err := bestOf(bare)
	if err != nil {
		return nil, err
	}
	overhead := 100 * (baseWall.Seconds() - bareWall.Seconds()) / bareWall.Seconds()
	t.Row("heartbeats off (cost isolation)", bareWall.Milliseconds(),
		fmt.Sprintf("hardening overhead %+.1f%%", overhead), check(res))

	// Checkpointing: persistence every 4 waves on top of the solve.
	ckptDir, err := os.MkdirTemp("", "e12-ckpt-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	ck := base
	ck.CheckpointDir = ckptDir
	ck.CheckpointEvery = 4
	var ckErr error
	ckWall := wallTime(func() { res, _, ckErr = ck.SolveDetailed(slice) })
	if ckErr != nil {
		return nil, ckErr
	}
	t.Row("checkpoints every 4 waves", ckWall.Milliseconds(),
		fmt.Sprintf("solved, %+.1f%% vs fault-free", 100*(ckWall.Seconds()-baseWall.Seconds())/baseWall.Seconds()),
		check(res))

	// A wire that misbehaves without failing: every frame torn into short
	// reads and writes on every connection.
	shred := base
	shred.WrapConn = func(local, peer int, c net.Conn) net.Conn {
		return faultnet.Plan{Seed: int64(local*8 + peer), MaxRead: 7, MaxWrite: 9}.Wrap(c)
	}
	var shredErr error
	shredWall := wallTime(func() { res, _, shredErr = shred.SolveDetailed(slice) })
	if shredErr != nil {
		return nil, shredErr
	}
	t.Row("short reads/writes, all conns", shredWall.Milliseconds(), "solved", check(res))

	// A wedged node: the 1<->2 conn goes silent after one frame while
	// staying open. Unhardened code hangs forever; the deadline detector
	// must produce a typed NodeFailedError within a few timeouts.
	const wedgeTimeout = 2 * time.Second
	wedged := base
	wedged.Timeout = wedgeTimeout
	wedged.WrapConn = wrapMeshPair(1, 2, faultnet.Plan{CutAfter: 1, Wedge: true})
	var wedgeErr error
	wedgeWall := wallTime(func() { _, _, wedgeErr = wedged.SolveDetailed(slice) })
	var nf *remote.NodeFailedError
	switch {
	case wedgeErr == nil:
		t.Row("wedged node (timeout 2s)", wedgeWall.Milliseconds(), "SOLVE SURVIVED A WEDGE", "unexpected")
	case !errors.As(wedgeErr, &nf):
		t.Row("wedged node (timeout 2s)", wedgeWall.Milliseconds(), "UNTYPED ERROR: "+wedgeErr.Error(), "unexpected")
	default:
		bound := "detected within bound"
		if wedgeWall > 5*wedgeTimeout {
			bound = fmt.Sprintf("SLOW: %v > 5x timeout", wedgeWall)
		}
		t.Row("wedged node (timeout 2s)", wedgeWall.Milliseconds(),
			fmt.Sprintf("NodeFailedError: node %d, %s, wave %d", nf.Node, nf.Phase, nf.Wave), bound)
	}

	// Kill and resume: cut the 1<->2 conn roughly halfway through its own
	// traffic (the full mesh splits rep.Bytes over 6 pairs), then re-run
	// in the same checkpoint directory. The resumed database must be
	// bit-identical.
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
	var killErr error
	killWall := wallTime(func() { _, _, killErr = killed.SolveDetailed(slice) })
	if killErr == nil {
		t.Row("killed mid-run, resumed", killWall.Milliseconds(), "CUT DID NOT KILL THE SOLVE", "unexpected")
	} else {
		left, _ := os.ReadDir(resumeDir)
		resumed := killed
		resumed.WrapConn = nil
		var resErr error
		resWall := wallTime(func() { res, _, resErr = resumed.SolveDetailed(slice) })
		if resErr != nil {
			return nil, fmt.Errorf("resume after kill: %w", resErr)
		}
		t.Row("killed mid-run, resumed", resWall.Milliseconds(),
			fmt.Sprintf("killed in %d ms, resumed from %d checkpoint directories", killWall.Milliseconds(), len(left)),
			check(res))
	}

	t.Note("hardening (per-read deadlines + heartbeats + write deadlines) is always on; target < 5%% fault-free overhead")
	t.Note("wedge/kill walls include the engine's failure-detection timeout; resume re-solves only the waves after the newest common checkpoint")
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
