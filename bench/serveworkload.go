package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/db"
	"retrograde/internal/server"
	"retrograde/internal/zdb"
)

// serve runs one of the three serve workloads: an in-process tier on
// loopback over the databases of rungs 0..ServeMax, loaded by this
// process over two client connections.
//
// An untraced run warms the tier, then alternates a closed loop that
// saturates it (throughput) with an open loop that holds the fixed mid
// rate (unit_ms is the median latency there). A traced run probes the
// layers under the tier and runs all three fixed rates.
func (r *run) serve() error {
	var s *serving
	defer func() { s.close() }()
	if err := r.setups(func() (err error) {
		s.close()
		s, err = r.startServing()
		return err
	}); err != nil {
		return err
	}
	load := serveLoad[r.o.workload]
	res := r.res
	res.constant("serve_max_rung", float64(r.sz.ServeMax), "stones")
	res.constant("positions", float64(s.positions), "count")
	res.constant("db_bytes", float64(s.dbBytes), "B")
	res.constant("batch_size", batchSize, "count")
	res.constant("pool_batches", poolSize, "count")
	res.constant("client_conns", clientConns, "count")
	res.constant("queue_depth", queueDepth, "count")
	res.constant("rate_lo", load.Rates[0], "1/s")
	res.constant("rate_mid", load.Rates[1], "1/s")
	res.constant("rate_hi", load.Rates[2], "1/s")
	res.constant("p99_limit", load.P99LimitUS, "us")

	g := &loadGen{res: res, tr: r.tr, pool: s.pool, clients: s.clients}
	sec := r.o.seconds
	// Saturation throughput in queries/s and latency at a fixed rate
	// in microseconds: fast quartiles over the slices of the phases.
	satQPS := func(phases ...phaseReport) float64 {
		var rates []float64
		for _, p := range phases {
			rates = append(rates, p.SliceOKPerS...)
		}
		return summarize(rates).Q3 * batchSize
	}
	// For latency the fastest slice, not the fast quartile: on the seed
	// host it repeated within 4 to 15 % where the quartile repeated
	// within 3 to 28 %.
	fastP50US := func(phases ...phaseReport) float64 {
		var p50s []float64
		for _, p := range phases {
			p50s = append(p50s, p.SliceP50US...)
		}
		return slices.Min(p50s)
	}
	if r.tr == nil {
		// The two measurements alternate, so that each samples the
		// whole run and a slow stretch of the host cannot cover either.
		g.closed("warm", 0.1*sec)
		var closed, mid []phaseReport
		for round := 1; round <= loadRounds; round++ {
			closed = append(closed, g.closed(fmt.Sprintf("closed-%d", round), 0.35*sec/loadRounds))
			p, err := g.open(fmt.Sprintf("open-mid-%d", round), load.Rates[1], 0.55*sec/loadRounds)
			if err != nil {
				return err
			}
			mid = append(mid, p)
		}
		res.set("throughput", satQPS(closed...))
		res.set("unit_ms", fastP50US(mid...)/1000)
		return nil
	}

	if err := r.layerProbes(s); err != nil {
		return err
	}
	g.closed("warm", 0.05*sec)
	sat := g.closed("closed", 0.15*sec)
	lo, err := g.open("open-lo", load.Rates[0], 0.17*sec)
	if err != nil {
		return err
	}
	// The mid rate runs twice: spans are recorded from samples every
	// phase keeps anyway, so the pair differs only by noise, and that is
	// what trace_overhead_share shows on a serve workload.
	g.tr = nil
	base, err := g.open("open-mid-untraced", load.Rates[1], 0.17*sec)
	g.tr = r.tr
	if err != nil {
		return err
	}
	r.tr.nextRun()
	mid, err := g.open("open-mid", load.Rates[1], 0.2*sec)
	if err != nil {
		return err
	}
	hi, err := g.open("open-hi", load.Rates[2], 0.17*sec)
	if err != nil {
		return err
	}
	res.set("trace_overhead_share", fastP50US(mid)/fastP50US(base)-1)
	res.set("server.lat_p50_us.lo", lo.P50US)
	res.set("server.lat_p50_us.hi", hi.P50US)
	res.set("server.lat_p99_us.lo", lo.P99US)
	res.set("server.lat_p99_us.mid", mid.P99US)
	res.set("server.lat_p99_us.hi", hi.P99US)
	res.set("server.gen_late_p99_us", mid.LateP99US)
	var atSLO float64
	for _, p := range []phaseReport{lo, mid, hi} {
		if p.OK == p.Sent && !p.BacklogGrew && p.P99US <= load.P99LimitUS {
			atSLO = p.RatePerS
		}
	}
	res.set("server.rate_at_slo", atSLO)

	var batches, overloads uint64
	var serviceUS float64
	for _, srv := range s.servers {
		m := srv.Metrics()
		batches += m.Batches
		overloads += m.Overloads
		serviceUS += m.LatencyMeanMicros * float64(m.Batches)
	}
	res.set("server.service_mean_us", serviceUS/float64(batches))
	res.set("server.overloads", float64(overloads))
	var retries uint64
	for _, c := range s.clients {
		retries += c.Stats().Retries
	}
	res.set("server.client_retries", float64(retries))
	res.set("db.bytes_per_pos", float64(s.dbBytes)/float64(s.positions))

	if s.broker == nil {
		return nil
	}
	// The broker's cost is read against the same stream sent straight
	// to one of its backends.
	direct, err := dial(s.servers[0].Addr())
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range direct {
			c.Close()
		}
	}()
	g.clients = direct
	directSat := g.closed("direct-closed", 0.12*sec)
	directMid, err := g.open("direct-mid", load.Rates[1], 0.15*sec)
	if err != nil {
		return err
	}
	res.set("broker.hop_p50_us", fastP50US(mid)-fastP50US(directMid))
	res.set("broker.sat_ratio", satQPS(sat)/satQPS(directSat))
	res.set("broker.failovers", float64(s.broker.Metrics().Failovers))
	var backendRetries uint64
	for _, b := range s.broker.BackendsSnapshot() {
		backendRetries += b.Client.Retries
	}
	res.set("broker.backend_retries", float64(backendRetries))
	return nil
}

// loadRounds is how many times an untraced serve run alternates its
// closed and open loops.
const loadRounds = 3

// medianUS times f n times and returns the median in microseconds.
func medianUS(n int, f func(i int) error) (float64, error) {
	ns := make([]int64, n)
	for i := range ns {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ns[i] = int64(time.Since(t0))
	}
	slices.Sort(ns)
	return float64(exactQuantile(ns, 0.5)) / 1e3, nil
}

// layerProbes measures the layers under a serving tier, each on its own:
// the position codec and best-move lookup a query costs, the storage
// format of the workload's shards on the top rung, the shard cache, and
// the protocol floor on the idle tier.
func (r *run) layerProbes(s *serving) error {
	defer r.tr.begin("serve.layer_probes")()
	res := r.res
	top := r.sz.ServeMax
	rank, unrank := indexProbe(top, r.o.seed)
	res.set("index.rank_ns", rank)
	res.set("index.unrank_ns", unrank)

	t0 := time.Now()
	queries := 0
	for _, b := range s.pool {
		for _, q := range b.qs {
			pit, _, _ := awari.BestMove(awariConfig.Rules, q.Board, s.ladder.Lookup)
			sink += uint64(pit)
			queries++
		}
	}
	res.set("awari.best_move_ns", float64(time.Since(t0).Nanoseconds())/float64(queries))

	if err := r.storageProbe(s, top); err != nil {
		return err
	}

	cache, err := server.NewCache(s.dir, 0)
	if err != nil {
		return err
	}
	keys := cache.Keys()
	t0 = time.Now()
	for _, k := range keys {
		pin, err := cache.Acquire(k)
		if err != nil {
			return err
		}
		pin.Release()
	}
	res.set("server.cold_acquire_ms", time.Since(t0).Seconds()*1000)
	const acquires = 1 << 18
	t0 = time.Now()
	for i := 0; i < acquires; i++ {
		pin, err := cache.Acquire(keys[i%len(keys)])
		if err != nil {
			return err
		}
		pin.Release()
	}
	res.set("server.acquire_warm_ns", float64(time.Since(t0).Nanoseconds())/acquires)

	c := s.clients[0]
	const calls = 2000
	rtt1, err := medianUS(calls, func(i int) error {
		_, err := c.Do(s.pool[i%len(s.pool)].qs[:1])
		return err
	})
	if err != nil {
		return err
	}
	rtt16, err := medianUS(calls, func(i int) error {
		_, err := c.Do(s.pool[i%len(s.pool)].qs)
		return err
	})
	if err != nil {
		return err
	}
	res.set("server.rtt_batch1_us", rtt1)
	res.set("server.rtt_batch16_us", rtt16)
	return nil
}

// storageProbe times the storage layer the workload's shards use, on the
// top served rung: the flat v1 table, or for serve-zdb the block-
// compressed v2 table built from it.
func (r *run) storageProbe(s *serving, top int) error {
	res := r.res
	values := s.ladder.Result(top).Values
	ms := func(t0 time.Time) float64 { return time.Since(t0).Seconds() * 1000 }
	rng := rand.New(rand.NewSource(r.o.seed))
	randomIdx := func(n int) []uint64 {
		idx := make([]uint64, n)
		for i := range idx {
			idx[i] = uint64(rng.Int63n(int64(len(values))))
		}
		return idx
	}
	getNS := func(idx []uint64, get func(uint64) uint64) float64 {
		t0 := time.Now()
		for _, x := range idx {
			sink += get(x)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(idx))
	}
	path := filepath.Join(r.dir, "probe.radb")

	t0 := time.Now()
	tab, err := db.Pack("probe", s.ladder.Slice(top).ValueBits(), values)
	if err != nil {
		return err
	}
	res.set("db.pack_ms", ms(t0))
	if r.o.workload != "serve-zdb" {
		t0 = time.Now()
		if err := tab.Save(path); err != nil {
			return err
		}
		res.set("db.save_ms", ms(t0))
		t0 = time.Now()
		loaded, err := db.Load(path)
		if err != nil {
			return err
		}
		res.set("db.load_ms", ms(t0))
		res.set("db.get_ns", getNS(randomIdx(1<<20), func(x uint64) uint64 { return uint64(loaded.Get(x)) }))
		return nil
	}

	t0 = time.Now()
	z, err := zdb.Compress(tab, 0)
	if err != nil {
		return err
	}
	res.set("zdb.compress_ms", ms(t0))
	if err := z.Save(path); err != nil {
		return err
	}
	t0 = time.Now()
	loaded, err := zdb.Load(path)
	if err != nil {
		return err
	}
	res.set("zdb.load_ms", ms(t0))
	t0 = time.Now()
	if _, err := loaded.Unpack(); err != nil {
		return err
	}
	res.set("zdb.unpack_ms", ms(t0))
	get := func(x uint64) uint64 { return uint64(loaded.Get(x)) }
	// Warm: every index falls in one block, decoded once. Cold: uniform
	// random indices over a table far larger than the decoded-block cache.
	warm := make([]uint64, 1<<20)
	for i := range warm {
		warm[i] = uint64(i % min(loaded.BlockLen(), len(values)))
	}
	res.set("zdb.get_warm_ns", getNS(warm, get))
	res.set("zdb.get_cold_ns", getNS(randomIdx(1<<14), get))
	res.set("zdb.ratio", loaded.Ratio())
	return nil
}
