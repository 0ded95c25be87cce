// Package retrograde is a library for building game endgame databases by
// parallel retrograde analysis, reproducing Bal & Allis, "Parallel
// Retrograde Analysis on a Distributed System" (SC95).
//
// # What it does
//
// Retrograde analysis enumerates every position of a game slice and
// computes optimal values backwards from terminal positions via un-moves.
// This package provides:
//
//   - the awari rules engine and database ladder of the paper, plus
//     Kalah, Nim, tic-tac-toe and the KRK/KQK chess endgames as further
//     games and validation oracles;
//   - interchangeable engines that compute bit-identical databases:
//     Sequential (the paper's uniprocessor baseline), Concurrent (real
//     goroutines with batched channel sends), Distributed (the paper's
//     message-combining algorithm on a simulated 64-node Ethernet
//     cluster, measured in deterministic virtual time; with Async set it
//     drops the barriers for Safra termination detection), TCP (real sockets)
//     and OutOfCore (state capped at a byte budget and spilled to disk,
//     which also makes it the pause/resume and crash-restart engine);
//   - bit-packed, checksummed database files;
//   - the experiment harness that regenerates the paper's evaluation
//     (see cmd/rabench and EXPERIMENTS.md).
//
// # Quickstart
//
//	cfg := retrograde.LadderConfig{Rules: retrograde.StandardRules, Loop: retrograde.LoopOwnSide}
//	l, err := retrograde.BuildLadder(cfg, 8, retrograde.Concurrent{}, nil)
//	if err != nil { ... }
//	board := retrograde.Board{0, 0, 0, 0, 2, 1, 1, 0, 0, 0, 0, 3}
//	pit, value, ok := l.BestMove(board)
//
// # Architecture
//
// internal/game defines the Game interface retrograde analysis consumes;
// internal/awari, internal/nim, internal/ttt implement it. internal/ra
// holds the engines around one shared worker state machine. The
// distributed engine runs on internal/cluster (simulated nodes with
// 1995-calibrated per-message costs) over internal/network (a shared-bus
// Ethernet model) under internal/sim (a deterministic discrete-event
// kernel), with internal/combine providing message combining. See
// DESIGN.md for the full inventory.
package retrograde

import (
	"retrograde/internal/awari"
	"retrograde/internal/broker"
	"retrograde/internal/chess"
	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/kalah"
	"retrograde/internal/ladder"
	"retrograde/internal/oocore"
	"retrograde/internal/ra"
	"retrograde/internal/remote"
	"retrograde/internal/search"
	"retrograde/internal/server"
)

// Core value and game types.
type (
	// Value is a game-specific encoded position value.
	Value = game.Value
	// Game is the position-space abstraction the engines analyse.
	Game = game.Game
	// Move is one legal move of the player to move.
	Move = game.Move
)

// NoValue marks "no value known".
const NoValue = game.NoValue

// Awari types.
type (
	// Board is an awari position from the mover's perspective.
	Board = awari.Board
	// Rules selects the awari rule variant.
	Rules = awari.Rules
	// LoopRule selects how eternal (cyclic) play is scored.
	LoopRule = awari.LoopRule
	// Slice is the n-stone awari database slice as a Game.
	Slice = awari.Slice
)

// StandardRules is awari as solved: grand slams capture, feeding is
// obligatory.
var StandardRules = awari.Standard

// Loop-scoring conventions (see DESIGN.md).
const (
	LoopOwnSide   = awari.LoopOwnSide
	LoopEvenSplit = awari.LoopEvenSplit
	LoopZero      = awari.LoopZero
)

// AwariSize returns the exact number of n-stone awari positions,
// C(n+11, 11).
func AwariSize(stones int) uint64 { return awari.Size(stones) }

// Engines.
type (
	// Engine solves a Game by retrograde analysis.
	Engine = ra.Engine
	// Result is a finished analysis: values plus work statistics.
	Result = ra.Result
	// Sequential is the uniprocessor baseline engine.
	Sequential = ra.Sequential
	// Concurrent is the shared-memory goroutine engine.
	Concurrent = ra.Concurrent
	// Distributed is the simulated-cluster engine of the paper;
	// Distributed{Async: true} is its barrier-free variant: continuous
	// expansion with Safra token-ring termination detection.
	Distributed = ra.Distributed
	// SimReport describes a Distributed run: virtual time and traffic.
	SimReport = ra.SimReport
	// OutOfCore is the spill-block engine: resident state capped at
	// MemLimit bytes, the rest zdb-compressed under Dir. Its manifests
	// double as checkpoints — a rerun in the same Dir resumes after a
	// crash or a StopAfterWaves pause (ErrPaused) — so with MemLimit at or
	// above the in-core footprint it is the checkpoint/restart engine for
	// long builds.
	OutOfCore = oocore.Engine
	// TCP is the engine over real sockets: the deployable counterpart to
	// the simulated Distributed engine.
	TCP = remote.Engine
	// RefineStats describes an iterative cycle-value refinement.
	RefineStats = ra.RefineStats
)

// Termination protocols of the Distributed engine.
const (
	CentralProtocol = ra.CentralProtocol
	TreeProtocol    = ra.TreeProtocol
)

// ErrPaused is returned by OutOfCore.Solve when it stops at a checkpoint
// because StopAfterWaves was reached.
var ErrPaused = ra.ErrPaused

// Refine improves a finished database's cyclic positions to a fixpoint
// where no player forgoes a strictly better move (see DESIGN.md); ladders
// apply it automatically when LadderConfig.Refine is set.
func Refine(g Game, r *Result, maxSweeps int) RefineStats { return ra.Refine(g, r, maxSweeps) }

// AuditRefined verifies a refined database.
func AuditRefined(g Game, r *Result) error { return ra.AuditRefined(g, r) }

// NewKRK returns the king-and-rook-versus-king chess endgame on an m x m
// board (m = 4..8) — the classic retrograde-analysis validation target.
func NewKRK(m int) (Game, error) { return chess.New(m) }

// NewKRKReduced returns KRK under 8-fold symmetry reduction: the same
// values in roughly an eighth of the positions.
func NewKRKReduced(m int) (Game, error) { return chess.NewReduced(m) }

// NewKQK returns the king-and-queen-versus-king endgame (longest mate:
// 10 moves on the 8x8 board).
func NewKQK(m int) (Game, error) { return chess.NewWithPiece(m, chess.Queen) }

// Search types: a forward solver probing the endgame databases (the use
// the paper motivates).
type (
	// Searcher solves awari positions by depth-limited negamax with
	// database probes.
	Searcher = search.Searcher
	// SearchResult is the outcome of one search.
	SearchResult = search.Result
)

// NewSearcher returns a Searcher over the ladder's databases.
func NewSearcher(l *Ladder) *Searcher { return search.New(l) }

// Solve runs retrograde analysis over a full game with the given engine.
func Solve(g Game, e Engine) (*Result, error) { return e.Solve(g) }

// Audit independently re-derives every value of a finished database and
// returns the first inconsistency found, or nil.
func Audit(g Game, r *Result) error { return ra.Audit(g, r) }

// Ladder types: families of awari databases built bottom-up.
type (
	// Ladder holds awari databases for stone totals 0..MaxStones().
	Ladder = ladder.Ladder
	// LadderConfig selects the rules and loop scoring of a ladder.
	LadderConfig = ladder.Config
)

// BuildLadder constructs awari databases for totals 0..maxStones, solving
// each rung with the engine. onRung, if non-nil, observes progress in
// rung order. Under Sequential, Concurrent and Distributed two rungs are
// solved at once (a capture takes at least two stones, so rung n+1 does
// not read rung n); any other engine is called one rung at a time.
func BuildLadder(cfg LadderConfig, maxStones int, e Engine, onRung func(stones int, r *Result)) (*Ladder, error) {
	return ladder.Build(cfg, maxStones, e, onRung)
}

// KalahLadder holds Kalah endgame databases, the second mancala game of
// the library (stores, extra turns, captures-to-store).
type KalahLadder = kalah.Ladder

// BuildKalahLadder constructs Kalah databases for totals 0..maxStones.
func BuildKalahLadder(maxStones int, e Engine, onRung func(stones int, r *Result)) (*KalahLadder, error) {
	return kalah.BuildLadder(maxStones, e, onRung)
}

// Storage.
type (
	// Table is a bit-packed, checksummed database table.
	Table = db.Table
)

// Database server: finished databases served over the network, with an
// LRU shard cache, request batching, and HTTP endpoints alongside the
// binary protocol (see cmd/raserve and internal/server).
type (
	// DBServer answers database queries over TCP and HTTP.
	DBServer = server.Server
	// DBServerConfig selects the database directory, rules, memory
	// budget and concurrency of a DBServer.
	DBServerConfig = server.Config
	// DBClient speaks the binary batch protocol to a DBServer.
	DBClient = server.Client
	// DBQuery is one query of a batch.
	DBQuery = server.Query
	// DBAnswer is the reply to one DBQuery.
	DBAnswer = server.Answer
)

// ErrDBOverloaded is returned when the server sheds a batch under load.
var ErrDBOverloaded = server.ErrOverloaded

// StartDBServer serves the databases found in cfg.Dir on addr.
func StartDBServer(addr string, cfg DBServerConfig) (*DBServer, error) {
	return server.Start(addr, cfg)
}

// DialDBServer connects a client to a running DBServer.
func DialDBServer(addr string) (*DBClient, error) { return server.Dial(addr) }

// Serving tier: a fleet of DBServers behind one address (see
// cmd/rabroker and internal/broker).
type (
	// DBBroker fronts DBServer backends on one listener, speaking the
	// same binary protocol and HTTP surface: rungs are consistent-hashed
	// across the fleet, hot rungs replicated everywhere, and dead
	// backends health-checked and routed around.
	DBBroker = broker.Broker
	// DBBrokerConfig lists the backends and sets replication, failover
	// and health-check policy.
	DBBrokerConfig = broker.Config
)

// StartDBBroker fronts the configured backends on addr. Clients dial it
// exactly as they would a DBServer.
func StartDBBroker(addr string, cfg DBBrokerConfig) (*DBBroker, error) {
	return broker.Start(addr, cfg)
}

// NewRemoteSearcher returns a Searcher whose probes go to a database
// server instead of a local ladder; probeLimit is the largest stone
// count the server's databases cover (DBServer's /shards or the
// client's errors reveal it).
func NewRemoteSearcher(c *DBClient, rules Rules, loop LoopRule, probeLimit int) *Searcher {
	return search.NewProber(server.NewProber(c), rules, loop, probeLimit)
}

// PackResult packs a finished analysis of g into a Table using the game's
// declared value width.
func PackResult(g Game, r *Result) (*Table, error) {
	return db.Pack(g.Name(), g.ValueBits(), r.Values)
}

// LoadTable reads a Table from a file written by Table.Save.
func LoadTable(path string) (*Table, error) { return db.Load(path) }
