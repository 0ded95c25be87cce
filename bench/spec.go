package main

// This file is the benchmark's contract: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics. The
// names are normative — later issues refer to workloads and metrics by
// exactly these names — and /BENCHMARK.json is this file rendered as
// JSON (`rabench -spec`); bench_test.go asserts the two are identical.

// schemaVersion is bumped whenever the result-file layout changes.
const schemaVersion = 1

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 8

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) error
}

// workloads lists the eight workloads in report order. All use awari
// Standard rules with the LoopOwnSide loop rule, one load-generating
// process, at most two client connections, and P fixed at 2 so rows
// compare across hosts.
var workloads = []workloadSpec{
	{"ladder13-swar", "Builds the awari ladder 0..13 with Sequential/SWAR, the paper's product; init (run-batched generator) and loop resolution dominate, waves are a small share.", (*run).ladderSWAR},
	{"rung13-scalar", "Solves rung 13 with the scalar kernel, the only kernel for rungs 16 and up, other games and every distributed engine; a SWAR-only gain must leave it flat.", (*run).rungScalar},
	{"rung13-conc2", "Solves rung 13 with Concurrent{Workers:2}: combine buffers, channels and the per-wave barrier, which the single-worker workloads bypass.", (*run).rungConc2},
	{"oocore13-cap25", "Solves rung 13 out of core at 25% of in-core state, so spill encode/write/read/decode/stall dominate; in-core workloads bypass this layer.", (*run).oocoreCap25},
	{"sim64-awari12", "Runs the paper's experiment, 64 simulated nodes with combining 100, in virtual time; host time measures the sim/cluster/network DES kernel.", (*run).sim64},
	{"serve-flat", "Serves rungs 0..13 from flat v1 shards on loopback: lookup is an array read, so frame decode, queueing, hand-off and reply write are the cost.", (*run).serve},
	{"serve-zdb", "Same stream over block-compressed v2 shards whose decoded-block cache is far smaller than the working set, so zdb block decode dominates.", (*run).serve},
	{"serve-broker", "Same stream through a broker over two flat backends: isolates the broker hop (split, route, fan-in) on the cheapest backend.", (*run).serve},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd metrics are reported by every workload in an untraced run.
// Timings are fast quartiles over repeats (see stats.go).
//
//   - setup_s: wall time of one set-up (substrate ladder build; serve-*:
//     plus database write, server start and client dial), over 3 set-ups.
//   - unit_ms: wall time of the workload's timed unit — one ladder build
//     or rung solve, or on serve-* the median latency of a 16-query batch
//     at the fixed mid rate, timed from its scheduled departure.
//   - throughput: positions solved per second (stated positions over
//     unit_ms), or on serve-* queries answered per second by a closed
//     loop of two clients (saturation).
//   - peak_rss_mib: VmHWM of the process that ran the workload.
//
// The bounds are the contract's maximum because the seed host's own A/A
// spread reaches a third of it (bench/README.md); tighten them on quieter
// hardware.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"unit_ms", "ms", "lower", 0.25},
	{"throughput", "1/s", "higher", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
}

type layerMetricSpec struct {
	Name   string
	Unit   string
	Better string
	// Layer is the package the metric belongs to.
	Layer string
	// Moves names the end-to-end metric, and the workloads, a change to
	// this metric is predicted to move. A traced run of any other
	// workload reports 0: that workload bypasses the layer.
	Moves string
}

// perLayer metrics are reported by a traced run (-trace 1). Counts marked
// exact repeat bit for bit between runs of one commit.
var perLayer = []layerMetricSpec{
	{"trace_overhead_share", "share", "lower", "bench", "traced unit / untraced baseline - 1, every workload"},

	{"index.rank_ns", "ns", "lower", "index", "unit_ms on rung13-scalar (per-position decode), throughput on serve-flat (awari.Rank per query)"},
	{"index.unrank_ns", "ns", "lower", "index", "unit_ms on rung13-scalar, throughput on serve-flat"},

	{"awari.init_run_ns_per_pos", "ns", "lower", "awari", "unit_ms on ladder13-swar, oocore13-cap25"},
	{"awari.preds_run_ns_per_pos", "ns", "lower", "awari", "unit_ms on ladder13-swar, oocore13-cap25"},
	{"awari.loop_values_run_ns_per_pos", "ns", "lower", "awari", "unit_ms on ladder13-swar, oocore13-cap25"},
	{"awari.moves_ns_per_pos", "ns", "lower", "awari", "unit_ms on rung13-scalar, sim64-awari12"},
	{"awari.preds_ns_per_pos", "ns", "lower", "awari", "unit_ms on rung13-scalar, sim64-awari12"},
	{"awari.loop_value_ns_per_pos", "ns", "lower", "awari", "unit_ms on rung13-scalar, sim64-awari12"},
	{"awari.best_move_ns", "ns", "lower", "awari", "throughput on serve-flat"},

	{"ra.init_s", "s", "lower", "ra", "unit_ms, peak_rss_mib on ladder13-swar, rung13-scalar"},
	{"ra.expand_s", "s", "lower", "ra", "unit_ms on ladder13-swar, rung13-scalar"},
	{"ra.resolve_loops_s", "s", "lower", "ra", "unit_ms on ladder13-swar, rung13-scalar"},
	{"ra.fill_s", "s", "lower", "ra", "unit_ms on ladder13-swar, rung13-scalar"},
	{"ra.init_self_s", "s", "lower", "ra", "ra.init_s minus the generator sweep; unit_ms on ladder13-swar, rung13-scalar"},
	{"ra.attributed_share", "share", "higher", "ra", "share of the solve spans covered by init+expand+resolve_loops+fill; >= 0.95 or the split is not trusted"},
	{"ra.waves", "count", "lower", "ra", "exact; unit_ms on ladder13-swar, rung13-scalar"},
	{"ra.init_final", "count", "higher", "ra", "exact"},
	{"ra.expanded", "count", "lower", "ra", "exact"},
	{"ra.preds_generated", "count", "lower", "ra", "exact"},
	{"ra.updates_applied", "count", "lower", "ra", "exact"},
	{"ra.updates_stale", "count", "lower", "ra", "exact"},
	{"ra.loop_resolved", "count", "lower", "ra", "exact"},
	{"ra.state_bytes", "B", "lower", "ra", "exact; peak_rss_mib on ladder13-swar, rung13-scalar"},
	{"ladder.rung_s.top", "s", "lower", "ladder", "unit_ms on ladder13-swar (rung 13)"},
	{"ladder.rung_s.top-1", "s", "lower", "ladder", "unit_ms on ladder13-swar (rung 12)"},
	{"ladder.rung_s.top-2", "s", "lower", "ladder", "unit_ms on ladder13-swar (rung 11)"},
	{"ladder.rung_s.top-3", "s", "lower", "ladder", "unit_ms on ladder13-swar (rung 10)"},
	{"ra.conc_speedup", "x", "higher", "ra", "Sequential (auto kernel) solve / Concurrent{2} solve; unit_ms on rung13-conc2"},
	{"ra.conc_p1_s", "s", "lower", "ra", "Concurrent{Workers:1}: engine overhead without parallelism; unit_ms on rung13-conc2"},
	{"ra.shard_imbalance", "x", "lower", "ra", "exact; max/mean Expanded over shards bounds the gain on rung13-conc2"},
	{"remote.tcp2_solve_s", "s", "lower", "remote", "remote.Engine{Workers:2} on awari-12 over loopback; reported with rung13-conc2"},
	{"combine.add_ns", "ns", "lower", "combine", "Buffer.Add plus flush per item; unit_ms on rung13-conc2"},

	{"sim.speedup", "x", "higher", "sim", "exact, golden-checked; virtual T(P=1) / T(P=64) on sim64-awari12"},
	{"sim.combine_ratio", "x", "higher", "combine", "exact, golden-checked; data messages at Combine 1 / Combine 100"},
	{"sim.virtual_s", "sim_s", "lower", "sim", "exact, golden-checked; virtual seconds at P=64, Combine 100"},
	{"combine.factor", "x", "higher", "combine", "exact; sim.virtual_s on sim64-awari12"},
	{"network.data_msgs", "count", "lower", "network", "exact; sim.virtual_s on sim64-awari12"},
	{"network.protocol_msgs", "count", "lower", "network", "exact; sim.virtual_s on sim64-awari12"},
	{"cluster.local_update_share", "share", "higher", "cluster", "exact; sim.virtual_s on sim64-awari12"},
	{"cluster.cpu_busy_share", "share", "higher", "cluster", "exact; sim.speedup on sim64-awari12"},
	{"sim.events", "count", "lower", "sim", "exact; unit_ms on sim64-awari12"},
	{"sim.events_per_s", "1/s", "higher", "sim", "host-side DES rate; unit_ms on sim64-awari12"},

	{"oocore.blocks", "count", "lower", "oocore", "exact"},
	{"oocore.spilled", "count", "lower", "oocore", "unit_ms on oocore13-cap25"},
	{"oocore.reloaded", "count", "lower", "oocore", "unit_ms on oocore13-cap25"},
	{"oocore.spill_bytes_written", "B", "lower", "oocore", "unit_ms on oocore13-cap25"},
	{"oocore.spill_bytes_read", "B", "lower", "oocore", "unit_ms on oocore13-cap25"},
	{"oocore.peak_resident_bytes", "B", "lower", "oocore", "peak_rss_mib on oocore13-cap25"},
	{"oocore.peak_pending_runs", "count", "lower", "oocore", "peak_rss_mib on oocore13-cap25"},
	{"oocore.checkpoints", "count", "lower", "oocore", "exact; unit_ms on oocore13-cap25"},
	{"oocore.prefetch_hit_share", "share", "higher", "oocore", "prefetch hits / reloads; unit_ms on oocore13-cap25"},
	{"oocore.write_stalls", "count", "lower", "oocore", "varies; unit_ms on oocore13-cap25"},
	{"oocore.slowdown_vs_incore", "x", "lower", "oocore", "cap-25 solve / Sequential solve of the same rung"},
	{"oocore.cap100_s", "s", "lower", "oocore", "100% cap: the engine's cost when nothing needs to spill"},
	{"oocore.idle_tax", "x", "lower", "oocore", "oocore.cap100_s / Sequential solve"},
	{"oocore.syncspill_s", "s", "lower", "oocore", "Writeback -1, NoPrefetch: the synchronous control"},

	{"db.pack_ms", "ms", "lower", "db", "setup_s on serve-*"},
	{"db.save_ms", "ms", "lower", "db", "setup_s on serve-flat, serve-broker"},
	{"db.load_ms", "ms", "lower", "db", "server.cold_acquire_ms on serve-flat"},
	{"db.get_ns", "ns", "lower", "db", "throughput, unit_ms on serve-flat"},
	{"db.bytes_per_pos", "B/pos", "lower", "db", "exact; bytes on disk / positions over the served rungs; trades against zdb.get_cold_ns"},
	{"zdb.compress_ms", "ms", "lower", "zdb", "setup_s on serve-zdb"},
	{"zdb.load_ms", "ms", "lower", "zdb", "server.cold_acquire_ms on serve-zdb"},
	{"zdb.unpack_ms", "ms", "lower", "zdb", "full-table inflate; no serve workload"},
	{"zdb.get_warm_ns", "ns", "lower", "zdb", "indices within one block; throughput on serve-zdb if the cache grows"},
	{"zdb.get_cold_ns", "ns", "lower", "zdb", "uniform random indices; throughput, unit_ms on serve-zdb"},
	{"zdb.ratio", "x", "higher", "zdb", "exact; db.bytes_per_pos on serve-zdb"},

	{"server.cold_acquire_ms", "ms", "lower", "server", "first Cache.Acquire of every shard; setup cost a client sees on first touch"},
	{"server.acquire_warm_ns", "ns", "lower", "server", "throughput on serve-flat"},
	{"server.rtt_batch1_us", "us", "lower", "server", "Client.Do on an idle server: protocol floor; unit_ms on serve-flat"},
	{"server.rtt_batch16_us", "us", "lower", "server", "unit_ms on serve-flat"},
	{"server.service_mean_us", "us", "lower", "server", "Server.Metrics mean over the run; throughput on serve-*"},
	{"server.overloads", "count", "lower", "server", "batches shed by the server; failed on serve-*"},
	{"server.client_retries", "count", "lower", "server", "client attempts beyond the first"},
	{"server.lat_p50_us.lo", "us", "lower", "server", "p50 at the low fixed rate"},
	{"server.lat_p50_us.hi", "us", "lower", "server", "p50 at the high fixed rate"},
	{"server.lat_p99_us.lo", "us", "lower", "server", "p99 at the low fixed rate"},
	{"server.lat_p99_us.mid", "us", "lower", "server", "p99 at the mid fixed rate; too noisy on a shared 2-core host to gate"},
	{"server.lat_p99_us.hi", "us", "lower", "server", "p99 at the high fixed rate"},
	{"server.rate_at_slo", "1/s", "higher", "server", "highest fixed rate meeting the p99 limit with nothing failed; step-valued"},
	{"server.gen_late_p99_us", "us", "lower", "server", "p99 of how late the open-loop generator departed; a check on the load, not the server"},

	{"broker.hop_p50_us", "us", "lower", "broker", "brokered minus direct p50 at the mid rate, same stream; unit_ms on serve-broker"},
	{"broker.sat_ratio", "x", "higher", "broker", "brokered / direct closed-loop throughput; throughput on serve-broker"},
	{"broker.failovers", "count", "lower", "broker", "failed on serve-broker"},
	{"broker.backend_retries", "count", "lower", "broker", "failed on serve-broker"},
}

// sizes fixes a scale's problem sizes. The bench scale is what
// BENCHMARK.json gates; smoke exists so the test can run every code path
// in seconds.
type sizes struct {
	Rung     int // top rung of ladder13-swar; solved rung of rung13-* and oocore13-cap25
	SimRung  int // sim64-awari12, and remote.tcp2_solve_s
	ServeMax int // serve-* databases hold rungs 0..ServeMax
	Setups   int // set-up repeats behind the setup_s median
	MinReps  int // timed units per run, at least
}

var scales = map[string]sizes{
	"bench": {Rung: 13, SimRung: 12, ServeMax: 13, Setups: 3, MinReps: 3},
	"smoke": {Rung: 7, SimRung: 6, ServeMax: 7, Setups: 1, MinReps: 1},
}

// serveRates fixes each serve workload's open-loop rates in batches/s and
// its p99 limit in microseconds for server.rate_at_slo. While an open
// loop runs, its clock busy-waits on one of the two cores (see open in
// serve.go), so the tier has about half of the closed loop's capacity:
// the mid rate is a little under half of that on the seed host, the
// outer rates are 0.5x and 1.5x the mid rate.
type serveRates struct {
	Rates      [3]float64
	P99LimitUS float64
}

var serveLoad = map[string]serveRates{
	"serve-flat":   {[3]float64{3000, 6000, 9000}, 5000},
	"serve-zdb":    {[3]float64{75, 150, 225}, 20000},
	"serve-broker": {[3]float64{750, 1500, 2250}, 10000},
}

// batchSize is the number of queries per batch on every serve workload.
const batchSize = 16
