// Command raload drives a serving tier — one raserve or a rabroker
// fleet — with a reproducible query stream and reports tail latency.
//
// Usage:
//
//	raload -server localhost:7100 -stones 7 -qps 2000 -duration 10s
//	raload -server localhost:7100 -stones 7 -n 500 -seed 42 -json
//
// With -qps the generator is OPEN-LOOP: batches depart on a fixed
// schedule whether or not earlier ones have returned, and each latency
// is measured from the batch's scheduled departure. A server that
// stalls therefore shows the stall in its tail quantiles instead of
// quietly slowing the generator down (closed-loop "coordinated
// omission"). -qps 0 falls back to a closed loop of -concurrency
// workers, which measures per-call service time under saturation.
//
// The stream is deterministic: batch i is derived from -seed and i
// alone, with boards drawn from rungs 1..-stones weighted by rung size
// (matching how often a search actually probes each rung). Answers fold
// into an order-independent checksum, so two runs with the same -seed,
// -stones, -batch and -n — say one against a backend directly and one
// through a broker — must print the same checksum if and only if the
// tiers agree on every answer. -verify additionally checks each value
// against local databases and counts mismatches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/server"
	"retrograde/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "raload: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	addr        string
	stones      int
	batch       int
	qps         float64
	concurrency int
	conns       int
	n           int
	duration    time.Duration
	seed        int64
	verifyDir   string
	retries     int
	timeout     time.Duration
	jsonOut     bool
}

// report is the run summary; the -json shape experiment harnesses parse.
type report struct {
	Target      string  `json:"target"`
	Mode        string  `json:"mode"`
	TargetQPS   float64 `json:"targetQps,omitempty"`
	Batches     uint64  `json:"batches"`
	Queries     uint64  `json:"queries"`
	OK          uint64  `json:"ok"`
	Errors      uint64  `json:"errors"`
	QueryErrors uint64  `json:"queryErrors"`
	Mismatches  uint64  `json:"mismatches"`
	Shed        uint64  `json:"shed"`
	Checksum    string  `json:"checksum"`
	Seconds     float64 `json:"seconds"`
	AchievedQPS float64 `json:"achievedQps"`
	LatencyMean float64 `json:"latencyMeanMicros"`
	LatencyP50  uint64  `json:"latencyP50Micros"`
	LatencyP99  uint64  `json:"latencyP99Micros"`
	LatencyP999 uint64  `json:"latencyP999Micros"`
	Client      struct {
		Retries        uint64 `json:"retries"`
		Reconnects     uint64 `json:"reconnects"`
		UnknownReplies uint64 `json:"unknownReplies"`
	} `json:"client"`
}

func run() error {
	var o options
	flag.StringVar(&o.addr, "server", "", "raserve or rabroker address (required)")
	flag.IntVar(&o.stones, "stones", 7, "draw boards from rungs 1..n (databases must cover them)")
	flag.IntVar(&o.batch, "batch", 16, "queries per batch")
	flag.Float64Var(&o.qps, "qps", 0, "open-loop batches per second (0 = closed loop)")
	flag.IntVar(&o.concurrency, "concurrency", 4, "closed-loop workers (-qps 0)")
	flag.IntVar(&o.conns, "conns", 4, "client connections to spread batches over")
	flag.IntVar(&o.n, "n", 0, "stop after this many batches (0 = run for -duration)")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "run length when -n is 0")
	flag.Int64Var(&o.seed, "seed", 1, "stream seed; same seed + count = same checksum")
	flag.StringVar(&o.verifyDir, "verify", "", "directory of awari-<n>.radb files to check every value against")
	flag.IntVar(&o.retries, "retries", 1, "client retries per call")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-call deadline (0 = none)")
	flag.BoolVar(&o.jsonOut, "json", false, "print the report as JSON")
	flag.Parse()

	if o.addr == "" {
		return fmt.Errorf("-server is required")
	}
	if o.stones < 1 || o.batch < 1 {
		return fmt.Errorf("-stones and -batch must be positive")
	}

	var lookup awari.Lookup
	if o.verifyDir != "" {
		cache, err := server.NewCache(o.verifyDir, 0)
		if err != nil {
			return fmt.Errorf("-verify: %w", err)
		}
		var release func()
		if lookup, release, err = cache.AcquireAwari(o.stones); err != nil {
			return fmt.Errorf("-verify: %w", err)
		}
		defer release()
	}

	clients := make([]*server.Client, o.conns)
	for i := range clients {
		c, err := server.DialConfig(o.addr, server.ClientConfig{Retries: o.retries, Timeout: o.timeout})
		if err != nil {
			return err
		}
		clients[i] = c
		defer c.Close()
	}

	l := &loader{o: o, clients: clients, lookup: lookup}
	start := time.Now()
	if o.qps > 0 {
		l.openLoop(start)
	} else {
		l.closedLoop(start)
	}
	elapsed := time.Since(start)

	r := l.report(elapsed)
	for _, c := range clients {
		st := c.Stats()
		r.Client.Retries += st.Retries
		r.Client.Reconnects += st.Reconnects
		r.Client.UnknownReplies += st.UnknownReplies
	}
	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	printReport(r)
	if r.OK == 0 {
		return fmt.Errorf("no batch succeeded")
	}
	return nil
}

// loader runs the stream and accumulates results; all fields are safe
// for concurrent batches.
type loader struct {
	o       options
	clients []*server.Client
	lookup  awari.Lookup

	batches     atomic.Uint64
	ok          atomic.Uint64
	errs        atomic.Uint64
	queryErrs   atomic.Uint64
	queries     atomic.Uint64
	mismatches  atomic.Uint64
	shed        atomic.Uint64
	checksum    atomic.Uint64 // wrapping sum of per-answer hashes: order-independent
	latencyHist stats.Histogram
}

// genBatch derives batch i's queries from the seed and i alone, so any
// interleaving of workers produces the same query multiset. Rungs are
// drawn proportionally to their position count: the biggest rung gets
// the most traffic, like a real search frontier.
func genBatch(seed int64, i, stones, batch int) ([]server.Query, []int, []uint64) {
	rng := rand.New(rand.NewSource(seed + int64(i)*0x6a09e667f3bcc909))
	cum := make([]uint64, stones+1) // cum[r] = positions in rungs 1..r
	for r := 1; r <= stones; r++ {
		cum[r] = cum[r-1] + awari.Size(r)
	}
	qs := make([]server.Query, batch)
	rungs := make([]int, batch)
	idxs := make([]uint64, batch)
	for j := range qs {
		x := uint64(rng.Int63n(int64(cum[stones])))
		r := 1
		for cum[r] <= x {
			r++
		}
		idx := x - cum[r-1]
		var pits [awari.Pits]int
		awari.Space(r).Unrank(idx, pits[:])
		var b awari.Board
		for k, c := range pits {
			b[k] = int8(c)
		}
		qs[j] = server.Query{Kind: server.KindBestMove, Board: b}
		rungs[j], idxs[j] = r, idx
	}
	return qs, rungs, idxs
}

// answerHash folds one answer into a 64-bit mix; summed over a run it
// forms the order-independent stream checksum.
func answerHash(rung int, idx uint64, a server.Answer) uint64 {
	x := uint64(rung)<<56 ^ idx<<8 ^ uint64(uint8(a.Value))<<1 ^ uint64(uint8(a.Pit))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// oneBatch sends batch i and folds its results in. The latency
// observation is the caller's: open loop measures from scheduled
// departure, closed loop from the call.
func (l *loader) oneBatch(i int, c *server.Client) bool {
	qs, rungs, idxs := genBatch(l.o.seed, i, l.o.stones, l.o.batch)
	l.batches.Add(1)
	as, err := c.Do(qs)
	if err != nil {
		l.errs.Add(1)
		return false
	}
	l.ok.Add(1)
	l.queries.Add(uint64(len(qs)))
	for j, a := range as {
		if a.Err != "" {
			l.queryErrs.Add(1)
			continue
		}
		l.checksum.Add(answerHash(rungs[j], idxs[j], a))
		if l.lookup != nil && a.Value != l.lookup(rungs[j], idxs[j]) {
			l.mismatches.Add(1)
		}
	}
	return true
}

// openLoop departs batches on a fixed schedule regardless of completions.
// Pending batches are capped only far beyond any sane backlog (so a dead
// server cannot OOM the generator); batches shed at that cap are counted,
// never silently dropped.
func (l *loader) openLoop(start time.Time) {
	interval := time.Duration(float64(time.Second) / l.o.qps)
	const maxPending = 16384
	sem := make(chan struct{}, maxPending)
	var wg sync.WaitGroup
	deadline := start.Add(l.o.duration)
	for i := 0; l.o.n > 0 && i < l.o.n || l.o.n == 0 && time.Now().Before(deadline); i++ {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			l.shed.Add(1)
			continue
		}
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			if l.oneBatch(i, l.clients[i%len(l.clients)]) {
				l.latencyHist.Observe(uint64(time.Since(sched).Microseconds()))
			}
		}(i, sched)
	}
	wg.Wait()
}

// closedLoop saturates with a fixed worker pool; batch indices stay
// dense so the checksum covers exactly batches 0..total-1 when -n set.
func (l *loader) closedLoop(start time.Time) {
	var next atomic.Int64
	deadline := start.Add(l.o.duration)
	var wg sync.WaitGroup
	for w := 0; w < l.o.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := l.clients[w%len(l.clients)]
			for {
				i := int(next.Add(1) - 1)
				if l.o.n > 0 && i >= l.o.n || l.o.n == 0 && !time.Now().Before(deadline) {
					return
				}
				t0 := time.Now()
				if l.oneBatch(i, c) {
					l.latencyHist.Observe(uint64(time.Since(t0).Microseconds()))
				}
			}
		}(w)
	}
	wg.Wait()
}

func (l *loader) report(elapsed time.Duration) *report {
	r := &report{
		Target:      l.o.addr,
		Mode:        "closed",
		Batches:     l.batches.Load(),
		Queries:     l.queries.Load(),
		OK:          l.ok.Load(),
		Errors:      l.errs.Load(),
		QueryErrors: l.queryErrs.Load(),
		Mismatches:  l.mismatches.Load(),
		Shed:        l.shed.Load(),
		Checksum:    fmt.Sprintf("%016x", l.checksum.Load()),
		Seconds:     elapsed.Seconds(),
		LatencyMean: l.latencyHist.Mean(),
		LatencyP50:  l.latencyHist.Quantile(0.50),
		LatencyP99:  l.latencyHist.Quantile(0.99),
		LatencyP999: l.latencyHist.Quantile(0.999),
	}
	if l.o.qps > 0 {
		r.Mode, r.TargetQPS = "open", l.o.qps
	}
	if elapsed > 0 {
		r.AchievedQPS = float64(r.OK) / elapsed.Seconds()
	}
	return r
}

func printReport(r *report) {
	t := stats.NewTable(fmt.Sprintf("raload: %s loop against %s", r.Mode, r.Target),
		"metric", "value")
	t.Row("batches ok / sent", fmt.Sprintf("%d / %d", r.OK, r.Batches))
	t.Row("queries answered", r.Queries)
	t.Row("transport errors", r.Errors)
	t.Row("per-query errors", r.QueryErrors)
	if r.Mismatches > 0 {
		t.Row("VALUE MISMATCHES", r.Mismatches)
	}
	if r.Shed > 0 {
		t.Row("shed (generator cap)", r.Shed)
	}
	t.Row("achieved batch/s", fmt.Sprintf("%.1f", r.AchievedQPS))
	t.Row("latency mean", fmt.Sprintf("%.0fµs", r.LatencyMean))
	t.Row("latency p50", fmt.Sprintf("%dµs", r.LatencyP50))
	t.Row("latency p99", fmt.Sprintf("%dµs", r.LatencyP99))
	t.Row("latency p999", fmt.Sprintf("%dµs", r.LatencyP999))
	t.Row("answer checksum", r.Checksum)
	if r.Client.Retries+r.Client.Reconnects > 0 {
		t.Note("client rode out %d retries, %d reconnects", r.Client.Retries, r.Client.Reconnects)
	}
	t.Render(os.Stdout)
}
