// Command rabuild computes endgame databases by retrograde analysis and
// writes them as packed, checksummed .radb files.
//
// Usage:
//
//	rabuild -stones 9 -out dbs/                     # awari ladder 0..9, shared-memory engine, one shard per CPU
//	rabuild -stones 9 -refine -out dbs/             # with cycle-value refinement
//	rabuild -stones 9 -engine distributed -procs 64 # top rung on the simulated cluster
//	rabuild -game nim -heaps 3 -max 7 -out dbs/     # a Nim database
//	rabuild -game ttt -out dbs/                     # the tic-tac-toe database
//	rabuild -game krk -board 8 -out dbs/            # the KRK chess endgame
//	rabuild -stones 9 -memlimit 4194304 -out dbs/   # out-of-core: 4 MiB resident cap
//
// -memlimit selects the out-of-core engine: each rung is solved with
// resident per-position state capped at the given byte budget, cold
// blocks spilled (zdb-compressed, checksummed) to -spilldir, which
// defaults to <out>/spill. The database written is bit-identical to the
// in-core engines'. A killed build resumes from the last spill-store
// checkpoint when rerun with the same flags. -memlimit, -spilldir and
// -syncspill are refused with any other -engine rather than ignored.
//
// For awari, all rungs 0..stones are built and each is saved as
// awari-<n>.radb, in order. A capture takes at least two stones, so rung n
// reads only rungs 0..n-2: with -engine sequential, concurrent or
// distributed, rung n+1 is solved alongside rung n. The tcp and capped
// engines solve one rung at a time (see perGameSpill). The chosen engine is
// used for every rung; with -engine distributed the tool also prints the
// virtual-time report of every rung.
//
// With -compress, databases are written in the block-compressed v2
// format (see internal/zdb): same .radb extension, smaller files, still
// random-access. -block sets the block length in entries (0 = default).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/chess"
	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/kalah"
	"retrograde/internal/ladder"
	"retrograde/internal/nim"
	"retrograde/internal/oocore"
	"retrograde/internal/ra"
	"retrograde/internal/remote"
	"retrograde/internal/stats"
	"retrograde/internal/ttt"
	"retrograde/internal/zdb"
)

// Compression settings shared by every save path, set once from flags.
var (
	compressOut bool
	blockLen    int
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "rabuild: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	gameName := flag.String("game", "awari", "game to solve: awari, kalah, nim, ttt, krk")
	stones := flag.Int("stones", 8, "awari: build databases for 0..stones stones")
	loopRule := flag.String("loop", "own-side", "awari loop rule: own-side, even-split, zero")
	grandSlam := flag.String("grandslam", "allowed", "awari grand-slam rule: allowed, forfeit")
	refine := flag.Bool("refine", false, "awari: refine cyclic values to a best-move fixpoint (refused with -loop zero, where it does not converge)")
	heaps := flag.Int("heaps", 3, "nim: number of heaps")
	maxHeap := flag.Int("max", 7, "nim: heap capacity")
	board := flag.Int("board", 8, "krk: board size (4..8)")
	engineName := flag.String("engine", "concurrent", "engine: sequential, concurrent, distributed, tcp, outofcore")
	procs := flag.Int("procs", 0, "concurrent: shards, 0 = one per CPU (GOMAXPROCS); distributed/tcp: simulated or mesh nodes, 0 = 8")
	combineSize := flag.Int("combine", 100, "distributed: updates per combined message (1 = off)")
	memLimit := flag.Uint64("memlimit", 0, "resident state cap in bytes; >0 selects the out-of-core engine, which solves one rung at a time, so the cap bounds the whole build")
	spillDir := flag.String("spilldir", "", "out-of-core spill directory (default <out>/spill)")
	syncSpill := flag.Bool("syncspill", false, "out-of-core: disable write-behind spilling and frontier prefetch (synchronous A/B control; bit-identical output)")
	out := flag.String("out", ".", "output directory for .radb files")
	compress := flag.Bool("compress", false, "write block-compressed v2 .radb files")
	block := flag.Int("block", 0, "v2 block length in entries (0 = default)")
	flag.Parse()
	compressOut, blockLen = *compress, *block

	if *memLimit > 0 && *engineName == "concurrent" {
		*engineName = "outofcore" // -memlimit alone selects the capped engine
	}
	if *engineName != "outofcore" && (*memLimit > 0 || *spillDir != "" || *syncSpill) {
		return fmt.Errorf("-memlimit, -spilldir and -syncspill apply only to the out-of-core engine, selected by -memlimit > 0; -engine %s would ignore them", *engineName)
	}
	// Shards are goroutines competing for real cores; nodes are simulated
	// (or mesh peers), so their default does not follow the host.
	nodes := *procs
	if nodes == 0 {
		nodes = 8
	}
	var engine ra.Engine
	switch *engineName {
	case "sequential":
		engine = ra.Sequential{}
	case "concurrent":
		engine = ra.Concurrent{Workers: *procs}
	case "distributed":
		engine = ra.Distributed{Workers: nodes, Combine: *combineSize}
	case "tcp":
		engine = remote.Engine{Workers: nodes, Batch: *combineSize}
	case "outofcore":
		if *memLimit == 0 {
			return fmt.Errorf("engine outofcore needs -memlimit > 0")
		}
		dir := *spillDir
		if dir == "" {
			dir = filepath.Join(*out, "spill")
		}
		ooc := oocore.Engine{MemLimit: *memLimit, Dir: dir}
		if *syncSpill {
			ooc.Writeback, ooc.NoPrefetch = -1, true
		}
		engine = perGameSpill{ooc}
	default:
		return fmt.Errorf("unknown engine %q", *engineName)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	switch *gameName {
	case "awari":
		return buildAwari(*stones, *loopRule, *grandSlam, *refine, engine, *out)
	case "nim":
		g, err := nim.New(*heaps, *maxHeap)
		if err != nil {
			return err
		}
		return buildOne(g, engine, *out)
	case "ttt":
		return buildOne(ttt.New(), engine, *out)
	case "kalah":
		return buildKalah(*stones, engine, *out)
	case "krk":
		g, err := chess.New(*board)
		if err != nil {
			return err
		}
		return buildOne(g, engine, *out)
	}
	return fmt.Errorf("unknown game %q", *gameName)
}

// perGameSpill adapts the capped engine to ladder use: rungs differ in
// size, so each game spills into its own subdirectory of Dir (keyed by
// game name) and an interrupted build resumes whichever rung it died in.
// Being no ra engine, it is called one rung at a time (ladder.Build
// overlaps rungs only under the reentrant ra engines), so a capped ladder
// never holds two rungs' capped state and the cap bounds the whole build.
type perGameSpill struct{ oocore.Engine }

func (e perGameSpill) Solve(g game.Game) (*ra.Result, error) {
	e.Dir = filepath.Join(e.Dir, g.Name())
	return e.Engine.Solve(g)
}

func buildAwari(stones int, loopName, slamName string, refine bool, engine ra.Engine, out string) error {
	var loop awari.LoopRule
	switch loopName {
	case "own-side":
		loop = awari.LoopOwnSide
	case "even-split":
		loop = awari.LoopEvenSplit
	case "zero":
		loop = awari.LoopZero
	default:
		return fmt.Errorf("unknown loop rule %q", loopName)
	}
	slam, err := awari.ParseGrandSlam(slamName)
	if err != nil {
		return err
	}
	rules := awari.Standard
	rules.GrandSlam = slam
	cfg := ladder.Config{Rules: rules, Loop: loop, Refine: refine}
	start := time.Now()
	l, err := ladder.Build(cfg, stones, engine, func(n int, r *ra.Result) {
		slice := awari.MustSlice(rules, loop, n, func(int, uint64) game.Value { return 0 })
		path := filepath.Join(out, fmt.Sprintf("awari-%d.radb", n))
		if err := save(slice, r, path); err != nil {
			fmt.Fprintf(os.Stderr, "rabuild: saving rung %d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Printf("awari-%-2d  %12s positions  %3d waves  %12s loopy  -> %s\n",
			n, stats.Count(uint64(len(r.Values))), r.Waves, stats.Count(r.LoopPositions), path)
		if r.Sim != nil {
			fmt.Printf("          virtual time %v, %s wire messages, combining factor %.1f\n",
				r.Sim.Duration, stats.Count(r.Sim.DataMessages), r.Sim.Combining.Factor())
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("built %d databases in %v (wall) with %s\n", l.MaxStones()+1, time.Since(start).Round(time.Millisecond), engine.Name())
	return nil
}

func buildKalah(stones int, engine ra.Engine, out string) error {
	start := time.Now()
	l, err := kalah.BuildLadder(stones, engine, func(n int, r *ra.Result) {
		path := filepath.Join(out, fmt.Sprintf("kalah-%d.radb", n))
		t, err := db.Pack(fmt.Sprintf("kalah-%d", n), valueBitsFor(n), r.Values)
		if err == nil {
			err = saveTable(t, path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rabuild: saving kalah rung %d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Printf("kalah-%-2d  %12s positions  %3d waves  -> %s\n",
			n, stats.Count(uint64(len(r.Values))), r.Waves, path)
	})
	if err != nil {
		return err
	}
	fmt.Printf("built %d kalah databases in %v (wall) with %s\n", l.MaxStones()+1, time.Since(start).Round(time.Millisecond), engine.Name())
	return nil
}

func valueBitsFor(stones int) int {
	bits := 1
	for 1<<bits <= stones {
		bits++
	}
	return bits
}

func buildOne(g game.Game, engine ra.Engine, out string) error {
	start := time.Now()
	r, err := engine.Solve(g)
	if err != nil {
		return err
	}
	path := filepath.Join(out, g.Name()+".radb")
	if err := save(g, r, path); err != nil {
		return err
	}
	fmt.Printf("%s  %s positions  %d waves  -> %s (%v wall)\n",
		g.Name(), stats.Count(uint64(len(r.Values))), r.Waves, path, time.Since(start).Round(time.Millisecond))
	if r.Sim != nil {
		fmt.Printf("  virtual time %v, %s wire messages, combining factor %.1f\n",
			r.Sim.Duration, stats.Count(r.Sim.DataMessages), r.Sim.Combining.Factor())
	}
	return nil
}

func save(g game.Game, r *ra.Result, path string) error {
	t, err := db.Pack(g.Name(), g.ValueBits(), r.Values)
	if err != nil {
		return err
	}
	return saveTable(t, path)
}

// saveTable writes the table as plain v1, or as block-compressed v2
// when -compress is set.
func saveTable(t *db.Table, path string) error {
	if !compressOut {
		return t.Save(path)
	}
	z, err := zdb.Compress(t, blockLen)
	if err != nil {
		return err
	}
	if err := z.Save(path); err != nil {
		return err
	}
	fmt.Printf("          compressed %s -> %s (%.2fx)\n",
		stats.Bytes(z.RawBytes()), stats.Bytes(z.Bytes()), z.Ratio())
	return nil
}
