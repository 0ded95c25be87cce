// Package broker is the horizontal scale-out of the serving tier: one
// logical endgame database served by a fleet of raserve backends behind
// a single address. The broker's front is raserve's — one
// server.Frontend with the broker's routing as its handler — so raquery
// and search probers connect to it unchanged, and drain, shedding, pings
// and the front counters are the same code in both daemons. Behind it
// the broker consistent-hashes rungs across the backends and treats the
// small hot rungs — the bottom of the ladder every lookup path touches —
// as replicated on every backend. Backends are health-checked two ways
// (the binary ping op and HTTP /healthz); a dead backend is routed
// around with bounded failover, so a kill -9 of one node degrades
// throughput instead of correctness.
package broker

import (
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"retrograde/internal/server"
	"retrograde/internal/stats"
)

// Config parameterises a Broker.
type Config struct {
	// Backends are the raserve addresses behind the broker. A backend
	// that is down at startup is dialed lazily and marked unhealthy until
	// it answers; the broker itself starts regardless.
	Backends []string
	// ReplicateMax treats rungs 0..ReplicateMax as replicated on every
	// backend: queries for them go to any healthy node (round-robin)
	// instead of the ring owner. The bottom of the ladder is tiny (rungs
	// 0..6 together are under a MiB) and every best-move expansion
	// probes it, so replicating it buys availability for free. Negative
	// disables replication.
	ReplicateMax int
	// Vnodes is the consistent-hash ring's virtual-node count per
	// backend (0 = DefaultVnodes).
	Vnodes int
	// MaxAttempts bounds how many distinct backends a per-backend
	// sub-batch may try before failing (0 = 3, capped at the fleet size).
	MaxAttempts int
	// Client configures the retrying backend connections
	// (server.DialConfig); its Retries apply per backend attempt, on
	// top of the broker's own failover across backends.
	Client server.ClientConfig
	// HealthInterval is the health-check period per backend (0 = 250ms).
	HealthInterval time.Duration
	// PingTimeout bounds one health round trip (0 = 1s).
	PingTimeout time.Duration
	// FailAfter is how many consecutive failed checks mark a backend
	// unhealthy (0 = 2). One success marks it healthy again.
	FailAfter int
	// MaxInflight bounds concurrently routed front batches; beyond it
	// the broker sheds load with overload frames (0 = 256).
	MaxInflight int
}

func (c Config) maxAttempts() int {
	n := c.MaxAttempts
	if n <= 0 {
		n = 3
	}
	if n > len(c.Backends) {
		n = len(c.Backends)
	}
	return n
}

func (c Config) healthInterval() time.Duration {
	if c.HealthInterval > 0 {
		return c.HealthInterval
	}
	return 250 * time.Millisecond
}

func (c Config) pingTimeout() time.Duration {
	if c.PingTimeout > 0 {
		return c.PingTimeout
	}
	return time.Second
}

func (c Config) failAfter() int {
	if c.FailAfter > 0 {
		return c.FailAfter
	}
	return 2
}

func (c Config) maxInflight() int {
	if c.MaxInflight > 0 {
		return c.MaxInflight
	}
	return 256
}

// backend is one raserve node behind the broker.
type backend struct {
	addr string
	cfg  server.ClientConfig

	mu      sync.Mutex
	c       *server.Client // nil until the first successful dial
	lastErr string
	fails   int // consecutive failed health checks

	healthy atomic.Bool

	batches   atomic.Uint64
	queries   atomic.Uint64
	errors    atomic.Uint64 // per-backend sub-batches this backend failed to answer
	checks    atomic.Uint64 // successful health checks
	pingFails atomic.Uint64
	httpFails atomic.Uint64
}

func (b *backend) String() string { return b.addr }

// client returns the backend's connection, dialing on first use (and
// after a failed initial dial). server.Client reconnects by itself once
// established.
func (b *backend) client() (*server.Client, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.c != nil {
		return b.c, nil
	}
	c, err := server.DialConfig(b.addr, b.cfg)
	if err != nil {
		b.lastErr = err.Error()
		return nil, err
	}
	b.c = c
	return c, nil
}

func (b *backend) clientStats() server.ClientStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.c == nil {
		return server.ClientStats{}
	}
	return b.c.Stats()
}

// Broker fronts a fleet of raserve backends behind one server.Frontend
// (binary protocol + HTTP on one listener). Create one with Start; stop
// it with Close.
type Broker struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend
	order    []string // deduped Backends order, for round-robin
	rr       atomic.Uint64

	front *server.Frontend
	sem   chan struct{} // MaxInflight slots held by batches being routed

	stop      chan struct{}
	wg        sync.WaitGroup // health loops
	closeOnce sync.Once

	failovers atomic.Uint64 // per-backend sub-batches answered by a non-first candidate
	unrouted  atomic.Uint64 // queries every candidate failed
}

// Start launches a broker on addr (e.g. "127.0.0.1:0") over
// cfg.Backends. It returns once the listener is ready; backend health
// is discovered asynchronously.
func Start(addr string, cfg Config) (*Broker, error) {
	seen := map[string]struct{}{}
	var order []string
	for _, a := range cfg.Backends {
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		order = append(order, a)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("broker: no backends configured")
	}
	cfg.Backends = order
	front, err := server.Listen(addr, nil)
	if err != nil {
		return nil, err
	}
	br := &Broker{
		cfg:      cfg,
		ring:     NewRing(cfg.Vnodes, order...),
		backends: map[string]*backend{},
		order:    order,
		front:    front,
		sem:      make(chan struct{}, cfg.maxInflight()),
		stop:     make(chan struct{}),
	}
	for _, a := range order {
		be := &backend{addr: a, cfg: cfg.Client}
		be.healthy.Store(true) // optimistic until checks say otherwise
		br.backends[a] = be
	}
	for _, be := range br.backends {
		br.wg.Add(1)
		go br.healthLoop(be)
	}
	front.Serve(br.route, br.httpMux())
	return br, nil
}

// Addr returns the listener's address.
func (br *Broker) Addr() string { return br.front.Addr() }

// Ring returns the broker's placement ring (for status displays).
func (br *Broker) Ring() *Ring { return br.ring }

// Close shuts the broker down gracefully: the front end drains (new
// batches are refused, everything admitted is answered), then the
// health checkers stop and the backend clients close. Closing twice is
// a no-op.
func (br *Broker) Close() error {
	err := br.front.Close()
	br.closeOnce.Do(func() {
		close(br.stop) // health loops exit
		br.wg.Wait()
		for _, be := range br.backends {
			be.mu.Lock()
			if be.c != nil {
				be.c.Close()
			}
			be.mu.Unlock()
		}
	})
	return err
}

// Health checking. Each backend is probed two ways on every tick: the
// binary ping op (does the query path answer?) and HTTP /healthz (does
// the sniffed HTTP side answer?). Both ride the same listener, so both
// failing modes of a half-dead process are seen.

func (br *Broker) healthLoop(be *backend) {
	defer br.wg.Done()
	httpc := &http.Client{Timeout: br.cfg.pingTimeout()}
	t := time.NewTicker(br.cfg.healthInterval())
	defer t.Stop()
	for {
		br.check(be, httpc)
		select {
		case <-t.C:
		case <-br.stop:
			return
		}
	}
}

func (br *Broker) check(be *backend, httpc *http.Client) {
	err := br.pingCheck(be)
	if err != nil {
		be.pingFails.Add(1)
	} else if err = httpCheck(httpc, be.addr); err != nil {
		be.httpFails.Add(1)
	}
	if err == nil {
		be.checks.Add(1)
		be.mu.Lock()
		be.fails = 0
		be.lastErr = ""
		be.mu.Unlock()
		be.healthy.Store(true)
		return
	}
	be.mu.Lock()
	be.fails++
	be.lastErr = err.Error()
	down := be.fails >= br.cfg.failAfter()
	be.mu.Unlock()
	if down {
		be.healthy.Store(false)
	}
}

func (br *Broker) pingCheck(be *backend) error {
	c, err := be.client()
	if err != nil {
		return err
	}
	return c.Ping(br.cfg.pingTimeout())
}

func httpCheck(httpc *http.Client, addr string) error {
	resp, err := httpc.Get("http://" + addr + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("broker: /healthz on %s: %s", addr, resp.Status)
	}
	return nil
}

func (br *Broker) healthyCount() int {
	n := 0
	for _, be := range br.backends {
		if be.healthy.Load() {
			n++
		}
	}
	return n
}

// Routing. Every query maps to a shard key (its stone-count rung, or a
// probe's shard), every key to the backends to try. A batch is split into
// one sub-batch per destination, not per key — the paper's combining, as
// the cost is per message — routed concurrently and reassembled in order.

// routeKey returns a query's shard key and its awari rung (-1 when the
// key is not a rung).
func routeKey(q *server.Query) (string, int) {
	if q.Kind == server.KindProbe {
		if n, ok := server.RungOf(q.Shard); ok {
			return q.Shard, n
		}
		return q.Shard, -1
	}
	n := q.Board.Stones()
	return server.RungKey(n), n
}

func (br *Broker) replicated(rung int) bool {
	return rung >= 0 && br.cfg.ReplicateMax >= 0 && rung <= br.cfg.ReplicateMax
}

// candidates returns the backends to try: order (a key's ring owners or a
// round-robin rotation of the fleet) with healthy ones first, bounded by
// MaxAttempts. Unhealthy backends stay in the tail — when everything is
// marked down, trying one beats failing without trying.
func (br *Broker) candidates(order []string) []*backend {
	healthy := make([]*backend, 0, len(order))
	var down []*backend
	for _, a := range order {
		be := br.backends[a]
		if be.healthy.Load() {
			healthy = append(healthy, be)
		} else {
			down = append(down, be)
		}
	}
	out := append(healthy, down...)
	if max := br.cfg.maxAttempts(); len(out) > max {
		out = out[:max]
	}
	return out
}

// subBatch is the queries of a batch (positions, keys) bound for cands.
type subBatch struct {
	cands []*backend
	keys  []string
	idx   []int
}

// split groups a batch by candidate sequence, computed once per key.
// Replicated keys join a sub-batch headed to a healthy backend, and
// rotate round-robin only when no such sub-batch exists.
func (br *Broker) split(qs []server.Query) []*subBatch {
	byKey := map[string]*subBatch{}
	repl := &subBatch{}
	var subs []*subBatch
	for i := range qs {
		key, rung := routeKey(&qs[i])
		sb := byKey[key]
		if sb == nil {
			sb = repl
			if !br.replicated(rung) {
				cands := br.candidates(br.ring.Owners(key, len(br.order)))
				if j := slices.IndexFunc(subs, func(s *subBatch) bool { return slices.Equal(s.cands, cands) }); j >= 0 {
					sb = subs[j]
				} else {
					sb = &subBatch{cands: cands}
					subs = append(subs, sb)
				}
			}
			sb.keys = append(sb.keys, key)
			byKey[key] = sb
		}
		sb.idx = append(sb.idx, i)
	}
	if len(repl.idx) > 0 {
		if j := slices.IndexFunc(subs, func(s *subBatch) bool { return s.cands[0].healthy.Load() }); j >= 0 {
			subs[j].keys = append(subs[j].keys, repl.keys...)
			subs[j].idx = append(subs[j].idx, repl.idx...)
		} else {
			start := int(br.rr.Add(1)-1) % len(br.order)
			repl.cands = br.candidates(slices.Concat(br.order[start:], br.order[:start]))
			subs = append(subs, repl)
		}
	}
	return subs
}

// route is the front end's handler: it answers one batch by sending one
// sub-batch to each destination, the first from this goroutine. Beyond
// MaxInflight concurrently routed batches it sheds load instead.
func (br *Broker) route(qs []server.Query) ([]server.Answer, error) {
	select {
	case br.sem <- struct{}{}:
		defer func() { <-br.sem }()
	default:
		return nil, server.ErrOverloaded
	}
	answers := make([]server.Answer, len(qs))
	subs := br.split(qs) // never empty: the protocol admits no empty batch
	var wg sync.WaitGroup
	for _, sb := range subs[1:] {
		wg.Add(1)
		go func() { defer wg.Done(); br.forward(sb, qs, answers) }()
	}
	br.forward(subs[0], qs, answers)
	wg.Wait()
	return answers, nil
}

// forward sends one sub-batch to its candidate backends in turn. The
// first backend that answers wins; per-query errors inside a successful
// reply pass through untouched (a backend that lacks a rung says so
// itself). Only when every candidate fails at the transport level do
// the queries come back as broker errors, naming keys and backends.
func (br *Broker) forward(sb *subBatch, qs []server.Query, answers []server.Answer) {
	sub := make([]server.Query, len(sb.idx))
	for i, j := range sb.idx {
		sub[i] = qs[j]
	}
	var lastErr error
	for attempt, be := range sb.cands {
		c, err := be.client()
		if err == nil {
			var as []server.Answer
			as, err = c.Do(sub)
			if err == nil {
				if attempt > 0 {
					br.failovers.Add(1)
				}
				be.batches.Add(1)
				be.queries.Add(uint64(len(sub)))
				for i, j := range sb.idx {
					answers[j] = as[i]
				}
				return
			}
		}
		be.errors.Add(1)
		lastErr = err
	}
	br.unrouted.Add(uint64(len(sb.idx)))
	msg := fmt.Sprintf("broker: no backend could answer %v (tried %v): %v", sb.keys, sb.cands, lastErr)
	for _, j := range sb.idx {
		answers[j] = server.Answer{Err: msg}
	}
}

// Observability.

// Metrics is the broker-wide snapshot behind /metrics.
type Metrics struct {
	server.FrontMetrics
	Failovers       uint64 `json:"failovers"`
	Unrouted        uint64 `json:"unrouted"`
	Backends        int    `json:"backends"`
	HealthyBackends int    `json:"healthyBackends"`
}

// BackendMetrics is one backend's snapshot.
type BackendMetrics struct {
	Addr         string             `json:"addr"`
	Healthy      bool               `json:"healthy"`
	LastErr      string             `json:"lastErr,omitempty"`
	Batches      uint64             `json:"batches"`
	Queries      uint64             `json:"queries"`
	Errors       uint64             `json:"errors"`
	HealthChecks uint64             `json:"healthChecks"`
	PingFails    uint64             `json:"pingFails"`
	HTTPFails    uint64             `json:"httpFails"`
	Client       server.ClientStats `json:"client"`
}

// Metrics snapshots the front-side and routing counters.
func (br *Broker) Metrics() Metrics {
	return Metrics{
		FrontMetrics:    br.front.Metrics(),
		Failovers:       br.failovers.Load(),
		Unrouted:        br.unrouted.Load(),
		Backends:        len(br.backends),
		HealthyBackends: br.healthyCount(),
	}
}

// BackendsSnapshot snapshots every backend, in configuration order.
func (br *Broker) BackendsSnapshot() []BackendMetrics {
	out := make([]BackendMetrics, 0, len(br.order))
	for _, a := range br.order {
		be := br.backends[a]
		be.mu.Lock()
		lastErr := be.lastErr
		be.mu.Unlock()
		out = append(out, BackendMetrics{
			Addr:         a,
			Healthy:      be.healthy.Load(),
			LastErr:      lastErr,
			Batches:      be.batches.Load(),
			Queries:      be.queries.Load(),
			Errors:       be.errors.Load(),
			HealthChecks: be.checks.Load(),
			PingFails:    be.pingFails.Load(),
			HTTPFails:    be.httpFails.Load(),
			Client:       be.clientStats(),
		})
	}
	return out
}

// Placement returns the routing table for rungs 0..maxRung: "all
// (replicated)" for hot rungs, the ring owner otherwise.
func (br *Broker) Placement(maxRung int) map[string]string {
	out := map[string]string{}
	for n := 0; n <= maxRung; n++ {
		key := server.RungKey(n)
		if br.replicated(n) {
			out[key] = "all (replicated)"
		} else {
			out[key] = br.ring.Owner(key)
		}
	}
	return out
}

// StatsTables renders the broker's observability surface as text.
func (br *Broker) StatsTables() []*stats.Table {
	bt := stats.NewTable("backends", "backend", "state", "batches", "queries", "errors", "checks", "ping fails", "http fails", "retries", "reconnects", "unknown")
	for _, bm := range br.BackendsSnapshot() {
		state := "down"
		if bm.Healthy {
			state = "up"
		}
		bt.Row(bm.Addr, state, bm.Batches, bm.Queries, bm.Errors, bm.HealthChecks, bm.PingFails, bm.HTTPFails,
			bm.Client.Retries, bm.Client.Reconnects, bm.Client.UnknownReplies)
	}
	bt.Note("replicated rungs: 0..%d to every backend; other rungs consistent-hashed (%d vnodes)",
		br.cfg.ReplicateMax, br.ring.vnodes)

	m := br.Metrics()
	ft := stats.NewTable("broker", "batches", "queries", "overloads", "failovers", "unrouted", "latency mean", "p50", "p99", "p999")
	ft.Row(
		stats.Count(m.Batches), stats.Count(m.Queries), stats.Count(m.Overloads),
		stats.Count(m.Failovers), stats.Count(m.Unrouted),
		fmt.Sprintf("%.0f µs", m.LatencyMeanMicros),
		fmt.Sprintf("%d µs", m.LatencyP50Micros),
		fmt.Sprintf("%d µs", m.LatencyP99Micros),
		fmt.Sprintf("%d µs", m.LatencyP999Micros),
	)
	return []*stats.Table{bt, ft}
}

func (br *Broker) httpMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if br.healthyCount() == 0 {
			http.Error(w, "no healthy backends", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		backends := br.BackendsSnapshot()
		clients := make([]server.ClientStats, len(backends))
		for i, bm := range backends {
			clients[i] = bm.Client
		}
		server.WriteJSON(w, map[string]any{
			"server":   br.Metrics(),
			"clients":  clients,
			"backends": backends,
		})
	})
	mux.HandleFunc("/backends", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, map[string]any{
			"backends":  br.BackendsSnapshot(),
			"placement": br.Placement(24),
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range br.StatsTables() {
			t.Render(w)
		}
	})
	return mux
}
