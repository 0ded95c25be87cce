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
// -syncspill are refused with any other -engine rather than ignored, and
// a game's own flags (-stones, -loop, -grandslam, -refine, -heaps, -max,
// -board) with any other -game.
//
// For awari and kalah, all rungs 0..stones are built by the one ladder
// builder and each is saved as awari-<n>.radb or kalah-<n>.radb, in order.
// An awari capture takes at least two stones, so rung n reads only rungs
// 0..n-2: with -engine sequential, concurrent or distributed, rung n+1 is
// solved alongside rung n. A Kalah bank takes one, so its rungs are solved
// one at a time, as are every rung under the tcp and capped engines (see
// perGameSpill). The chosen engine is used for every rung; with -engine
// distributed the tool also prints the virtual-time report of every rung.
//
// With -compress, databases are written in the block-compressed v2
// format (see internal/zdb): same .radb extension, smaller files, still
// random-access. -block sets the block length in entries (0 = default).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "rabuild: %v\n", err)
		os.Exit(1)
	}
}

// gameFlags names the flags only some games read, with those games.
var gameFlags = map[string][]string{
	"stones":    {"awari", "kalah"},
	"loop":      {"awari"},
	"grandslam": {"awari"},
	"refine":    {"awari"},
	"heaps":     {"nim"},
	"max":       {"nim"},
	"board":     {"krk"},
}

// checkGameFlags refuses a game flag set on the command line for a game
// that would ignore it.
func checkGameFlags(flags *flag.FlagSet, gameName string) error {
	var err error
	flags.Visit(func(f *flag.Flag) {
		if games, ok := gameFlags[f.Name]; ok && err == nil && !slices.Contains(games, gameName) {
			err = fmt.Errorf("-%s applies only to -game %s; -game %s would ignore it", f.Name, strings.Join(games, " or "), gameName)
		}
	})
	return err
}

func run(args []string) error {
	fs := flag.NewFlagSet("rabuild", flag.ContinueOnError)
	gameName := fs.String("game", "awari", "game to solve: awari, kalah, nim, ttt, krk")
	stones := fs.Int("stones", 8, "awari, kalah: build databases for 0..stones stones")
	loopRule := fs.String("loop", "own-side", "awari loop rule: own-side, even-split, zero")
	grandSlam := fs.String("grandslam", "allowed", "awari grand-slam rule: allowed, forfeit")
	refine := fs.Bool("refine", false, "awari: refine cyclic values to a best-move fixpoint (refused with -loop zero, where it does not converge)")
	heaps := fs.Int("heaps", 3, "nim: number of heaps")
	maxHeap := fs.Int("max", 7, "nim: heap capacity")
	board := fs.Int("board", 8, "krk: board size (4..8)")
	engineName := fs.String("engine", "concurrent", "engine: sequential, concurrent, distributed, tcp, outofcore")
	procs := fs.Int("procs", 0, "concurrent: shards, 0 = one per CPU (GOMAXPROCS); distributed/tcp: simulated or mesh nodes, 0 = 8")
	combineSize := fs.Int("combine", 100, "distributed: updates per combined message (1 = off)")
	memLimit := fs.Uint64("memlimit", 0, "resident state cap in bytes; >0 selects the out-of-core engine, which solves one rung at a time, so the cap bounds the whole build")
	spillDir := fs.String("spilldir", "", "out-of-core spill directory (default <out>/spill)")
	syncSpill := fs.Bool("syncspill", false, "out-of-core: disable write-behind spilling and frontier prefetch (synchronous A/B control; bit-identical output)")
	out := fs.String("out", ".", "output directory for .radb files")
	compress := fs.Bool("compress", false, "write block-compressed v2 .radb files")
	block := fs.Int("block", 0, "v2 block length in entries (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	compressOut, blockLen = *compress, *block
	if err := checkGameFlags(fs, *gameName); err != nil {
		return err
	}

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
		cfg, err := awariConfig(*loopRule, *grandSlam, *refine)
		if err != nil {
			return err
		}
		return buildLadder(false, cfg, *stones, engine, *out)
	case "nim":
		g, err := nim.New(*heaps, *maxHeap)
		if err != nil {
			return err
		}
		return buildOne(g, engine, *out)
	case "ttt":
		return buildOne(ttt.New(), engine, *out)
	case "kalah":
		return buildLadder(true, ladder.Config{}, *stones, engine, *out)
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

// awariConfig reads the awari ladder flags.
func awariConfig(loopName, slamName string, refine bool) (ladder.Config, error) {
	cfg := ladder.Config{Rules: awari.Standard, Refine: refine}
	switch loopName {
	case "own-side":
		cfg.Loop = awari.LoopOwnSide
	case "even-split":
		cfg.Loop = awari.LoopEvenSplit
	case "zero":
		cfg.Loop = awari.LoopZero
	default:
		return cfg, fmt.Errorf("unknown loop rule %q", loopName)
	}
	var err error
	cfg.Rules.GrandSlam, err = awari.ParseGrandSlam(slamName)
	return cfg, err
}

// buildLadder builds rungs 0..stones of an awari ladder, or of a Kalah
// one when kalahGame is set, and saves each rung as <game>-<n>.radb as
// soon as it is finished, so a long build shows its progress and keeps
// its finished rungs.
func buildLadder(kalahGame bool, cfg ladder.Config, stones int, engine ra.Engine, out string) error {
	// The saved rung needs only its game's name and value width, not its
	// lookup.
	noLookup := func(int, uint64) game.Value { return 0 }
	slice := func(n int) game.Game { return awari.MustSlice(cfg.Rules, cfg.Loop, n, noLookup) }
	if kalahGame {
		slice = func(n int) game.Game { return kalah.MustSlice(n, noLookup) }
	}
	start := time.Now()
	onRung := func(n int, r *ra.Result) {
		g := slice(n)
		path := filepath.Join(out, g.Name()+".radb")
		if err := save(g, r, path); err != nil {
			fmt.Fprintf(os.Stderr, "rabuild: saving %s: %v\n", g.Name(), err)
			os.Exit(1)
		}
		fmt.Printf("%-8s  %12s positions  %3d waves  %12s loopy  -> %s\n",
			g.Name(), stats.Count(uint64(len(r.Values))), r.Waves, stats.Count(r.LoopPositions), path)
		if r.Sim != nil {
			fmt.Printf("          virtual time %v, %s wire messages, combining factor %.1f\n",
				r.Sim.Duration, stats.Count(r.Sim.DataMessages), r.Sim.Combining.Factor())
		}
	}
	var err error
	if kalahGame {
		_, err = kalah.BuildLadder(stones, engine, onRung)
	} else {
		_, err = ladder.Build(cfg, stones, engine, onRung)
	}
	if err != nil {
		return err
	}
	fmt.Printf("built %d databases in %v (wall) with %s\n", stones+1, time.Since(start).Round(time.Millisecond), engine.Name())
	return nil
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
