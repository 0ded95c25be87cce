package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/stats"
)

// ErrOverloaded is returned when the server sheds a batch: its bounded
// queue is full, or it is draining for shutdown. Clients should back off
// and retry rather than pile on.
var ErrOverloaded = errors.New("server: overloaded")

// Config parameterises a Server.
type Config struct {
	// Dir is the database directory to discover shards in.
	Dir string
	// Rules is the awari rule set the databases were built with; move
	// generation for best-move and line queries depends on it.
	Rules awari.Rules
	// MemBudget bounds the bytes of resident shards (0 = unlimited).
	// Shards pinned by in-flight queries can push usage over the budget
	// temporarily; eviction catches up on release.
	MemBudget uint64
	// Workers is the number of query workers; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the batch queue; a full queue sheds load with an
	// overload response. 0 means 64.
	QueueDepth int
	// ReadTimeout, WriteTimeout and IdleTimeout bound the embedded HTTP
	// server (request read, response write, keep-alive idle); zero means
	// 30s, 60s and 2m. Binary-protocol connections are long-lived and may
	// idle between batches, so ReadTimeout and IdleTimeout do not apply
	// to them — but WriteTimeout bounds each reply write, so a peer that
	// stops draining its socket cannot wedge a reply goroutine forever.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
	// WrapConn, when non-nil, wraps every accepted connection — the
	// fault-injection hook for internal/faultnet (see raserve -faults).
	// Production setups leave it nil.
	WrapConn func(net.Conn) net.Conn
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) readTimeout() time.Duration {
	if c.ReadTimeout > 0 {
		return c.ReadTimeout
	}
	return 30 * time.Second
}

func (c Config) writeTimeout() time.Duration {
	if c.WriteTimeout > 0 {
		return c.WriteTimeout
	}
	return 60 * time.Second
}

func (c Config) idleTimeout() time.Duration {
	if c.IdleTimeout > 0 {
		return c.IdleTimeout
	}
	return 2 * time.Minute
}

// job is one admitted batch travelling through the queue.
type job struct {
	queries []Query
	answers []Answer
	enq     time.Time
	done    chan struct{}
}

// Server answers endgame-database queries over the binary protocol and
// HTTP on one listener. Create one with Start; stop it with Close.
type Server struct {
	cfg   Config
	cache *Cache
	l     net.Listener
	jobs  chan *job

	// admitMu orders request admission against draining: once draining
	// is set under the mutex, no new request can enter inflight, so
	// Close's inflight.Wait() covers every admitted request completely
	// (including its response write).
	admitMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	connsTorn bool // Close has swept conns; late arrivals must self-close

	httpL   *HTTPListener
	httpSrv *http.Server

	wg sync.WaitGroup // accept loop, workers, connection readers

	m metrics
}

// metrics are the server-wide counters; per-shard counters live in the
// cache.
type metrics struct {
	batches   stats.Histogram // batch sizes (queries per batch)
	latency   stats.Histogram // batch service time, microseconds
	queries   atomic.Uint64
	overloads atomic.Uint64
	errors    atomic.Uint64 // per-query failures
	pings     atomic.Uint64 // binary-protocol liveness probes answered
}

// Start discovers shards under cfg.Dir, listens on addr (e.g.
// "127.0.0.1:0") and serves until Close. It returns once the listener
// is ready.
func Start(addr string, cfg Config) (*Server, error) {
	cache, err := NewCache(cfg.Dir, cfg.MemBudget)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cache: cache,
		l:     l,
		jobs:  make(chan *job, cfg.queueDepth()),
		conns: map[net.Conn]struct{}{},
		httpL: NewHTTPListener(l.Addr()),
	}
	s.httpSrv = &http.Server{
		Handler:      s.httpMux(),
		ReadTimeout:  cfg.readTimeout(),
		WriteTimeout: cfg.writeTimeout(),
		IdleTimeout:  cfg.idleTimeout(),
	}
	for i := 0; i < cfg.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.httpSrv.Serve(s.httpL) // returns once Close closes httpL
	}()
	return s, nil
}

// Addr returns the listener's address (for addr ":0" setups).
func (s *Server) Addr() string { return s.l.Addr().String() }

// Cache returns the shard cache (for statistics).
func (s *Server) Cache() *Cache { return s.cache }

// Close shuts the server down gracefully: it stops accepting, refuses
// new batches with overload responses, serves and answers everything
// already admitted, then tears the connections down.
func (s *Server) Close() error {
	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		return nil
	}
	s.draining = true
	s.admitMu.Unlock()

	err := s.l.Close() // acceptLoop exits
	s.inflight.Wait()  // every admitted batch answered and written
	close(s.jobs)      // workers exit
	s.httpSrv.Close()  // http connections torn down
	s.httpL.Close()    // httpSrv.Serve returns
	s.connMu.Lock()    // binary connections torn down, readers exit
	s.connsTorn = true
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// begin admits one request. When it returns true the caller holds an
// inflight reference and must call s.inflight.Done() after fully
// responding; false means the server is draining.
func (s *Server) begin() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// execute queues the batch and waits for its answers. The caller must
// hold an inflight reference (see begin).
func (s *Server) execute(qs []Query) ([]Answer, error) {
	j := &job{queries: qs, enq: time.Now(), done: make(chan struct{})}
	select {
	case s.jobs <- j:
	default:
		s.m.overloads.Add(1)
		return nil, ErrOverloaded
	}
	<-j.done
	return j.answers, nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.serveJob(j)
		close(j.done)
	}
}

// serveJob answers a batch in one pass: the awari shards the batch needs
// are pinned once (family file, or rungs 0..maxN), every board query in
// the batch is answered against that pinned set, and probes pin their
// own shard. Pins guarantee concurrent evictions never race a lookup.
func (s *Server) serveJob(j *job) {
	j.answers = make([]Answer, len(j.queries))
	s.m.batches.Observe(uint64(len(j.queries)))
	s.m.queries.Add(uint64(len(j.queries)))

	cover := s.cache.AwariMax()
	maxN := -1
	for i := range j.queries {
		q := &j.queries[i]
		if q.Kind == KindProbe {
			continue
		}
		if n := q.Board.Stones(); n > cover {
			j.answers[i] = Answer{Err: fmt.Sprintf(
				"no awari database for %d stones (serving 0..%d); build the missing rungs with: rabuild -stones %d -out %s",
				n, cover, n, s.cfg.Dir)}
		} else if n > maxN {
			maxN = n
		}
	}

	var lookup awari.Lookup
	if maxN >= 0 {
		var release func()
		var err error
		lookup, release, err = s.cache.AcquireAwari(maxN)
		if err != nil {
			for i := range j.queries {
				if j.queries[i].Kind != KindProbe && j.answers[i].Err == "" {
					j.answers[i] = Answer{Err: err.Error()}
				}
			}
			lookup = nil
		} else {
			defer release()
		}
	}

	for i := range j.queries {
		if j.answers[i].Err != "" {
			continue
		}
		q := &j.queries[i]
		if q.Kind == KindProbe {
			j.answers[i] = s.probe(q)
		} else if lookup != nil {
			j.answers[i] = s.answerBoard(q, lookup)
		}
		if j.answers[i].Err != "" {
			s.m.errors.Add(1)
		}
	}
	s.m.latency.Observe(uint64(time.Since(j.enq).Microseconds()))
}

// probe answers a raw table lookup.
func (s *Server) probe(q *Query) Answer {
	pin, err := s.cache.Acquire(q.Shard)
	if err != nil {
		return Answer{Err: err.Error()}
	}
	defer pin.Release()
	if pin.Family() != nil {
		return Answer{Err: fmt.Sprintf("server: shard %q is a family; probe its per-rung tables", q.Shard)}
	}
	if q.Index >= pin.Entries() {
		return Answer{Err: fmt.Sprintf("server: index %d out of range [0, %d) in shard %q", q.Index, pin.Entries(), q.Shard)}
	}
	return Answer{Value: pin.Get(q.Index), Pit: -1}
}

// answerBoard answers the awari kinds against the pinned lookup.
func (s *Server) answerBoard(q *Query, lookup awari.Lookup) Answer {
	n := q.Board.Stones()
	a := Answer{Value: lookup(n, awari.Rank(q.Board)), Pit: -1}
	if q.Kind == KindValue {
		return a
	}
	if pit, _, ok := awari.BestMove(s.cfg.Rules, q.Board, lookup); ok {
		a.Pit = pit
	}
	if q.Kind != KindLine || a.Pit < 0 {
		return a
	}
	cur := q.Board
	for ply := 0; ply < q.MaxPlies; ply++ {
		pit, _, ok := awari.BestMove(s.cfg.Rules, cur, lookup)
		if !ok {
			break
		}
		a.Line = append(a.Line, int8(pit))
		cur, _ = s.cfg.Rules.Apply(cur, pit)
	}
	return a
}

// acceptLoop sniffs each connection's first bytes: HTTP methods go to
// the embedded HTTP server, everything else speaks the binary protocol.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.l.Accept()
		if err != nil {
			return
		}
		if s.cfg.WrapConn != nil {
			c = s.cfg.WrapConn(c)
		}
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	// Track before the first read: a connection accepted just as Close
	// sweeps s.conns would otherwise be closed by nobody, and Close's
	// wg.Wait() would hang on its blocked reader.
	if !s.track(c) {
		c.Close()
		return
	}
	br := bufio.NewReader(c)
	first, err := br.Peek(4)
	if err != nil {
		s.untrack(c)
		c.Close()
		return
	}
	if IsHTTP(first) {
		// Hand the connection (with its peeked bytes) to net/http; the
		// HTTP server owns its lifecycle from here.
		s.untrack(c)
		s.httpL.Deliver(&BufConn{Conn: c, R: br})
		return
	}
	defer s.untrack(c)
	defer c.Close()

	var wmu sync.Mutex // replies from concurrent batches interleave per frame
	var pending sync.WaitGroup
	defer pending.Wait()
	for {
		kind, body, err := ReadFrame(br)
		if err != nil {
			return
		}
		if kind == FramePing {
			// Liveness probes bypass admission and the queue: a loaded or
			// draining server is still alive, and health checkers must see
			// that distinction.
			id, err := FrameID(body)
			if err != nil {
				return
			}
			s.m.pings.Add(1)
			wmu.Lock()
			c.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout()))
			c.Write(EncodePong(id))
			wmu.Unlock()
			continue
		}
		if kind != FrameQuery {
			return
		}
		id, qs, err := DecodeQueries(body)
		if err != nil {
			return
		}
		if !s.begin() {
			wmu.Lock()
			c.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout()))
			c.Write(EncodeOverload(id))
			wmu.Unlock()
			continue
		}
		// Each batch runs in its own goroutine so one connection can
		// pipeline batches; the bounded queue is the backpressure.
		pending.Add(1)
		go func() {
			defer pending.Done()
			defer s.inflight.Done()
			answers, err := s.execute(qs)
			var frame []byte
			if err != nil {
				frame = EncodeOverload(id)
			} else {
				frame = EncodeAnswers(id, answers)
			}
			wmu.Lock()
			c.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout()))
			c.Write(frame)
			wmu.Unlock()
		}()
	}
}

// track registers a live connection for teardown; false means Close
// has already swept the set and the caller must close c itself.
func (s *Server) track(c net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.connsTorn {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// ServerMetrics is the machine-readable request-path snapshot behind
// /metrics: what a fleet dashboard scrapes, where /stats renders tables
// for humans.
type ServerMetrics struct {
	Batches           uint64  `json:"batches"`
	Queries           uint64  `json:"queries"`
	Overloads         uint64  `json:"overloads"`
	QueryErrors       uint64  `json:"queryErrors"`
	Pings             uint64  `json:"pings"`
	QueueDepth        int     `json:"queueDepth"`
	LatencyMeanMicros float64 `json:"latencyMeanMicros"`
	LatencyP50Micros  uint64  `json:"latencyP50Micros"`
	LatencyP99Micros  uint64  `json:"latencyP99Micros"`
	LatencyP999Micros uint64  `json:"latencyP999Micros"`
	ResidentBytes     uint64  `json:"residentBytes"`
	BudgetBytes       uint64  `json:"budgetBytes"`
}

// Metrics snapshots the server-wide counters.
func (s *Server) Metrics() ServerMetrics {
	return ServerMetrics{
		Batches:           s.m.batches.Count(),
		Queries:           s.m.queries.Load(),
		Overloads:         s.m.overloads.Load(),
		QueryErrors:       s.m.errors.Load(),
		Pings:             s.m.pings.Load(),
		QueueDepth:        len(s.jobs),
		LatencyMeanMicros: s.m.latency.Mean(),
		LatencyP50Micros:  s.m.latency.Quantile(0.5),
		LatencyP99Micros:  s.m.latency.Quantile(0.99),
		LatencyP999Micros: s.m.latency.Quantile(0.999),
		ResidentBytes:     s.cache.Used(),
		BudgetBytes:       s.cache.Budget(),
	}
}

// StatsTables renders the server's observability surface: per-shard
// cache counters and the request-path summary.
func (s *Server) StatsTables() []*stats.Table {
	shards := stats.NewTable("shards", "shard", "kind", "fmt", "entries", "bits", "size", "raw", "state", "pins", "hits", "misses", "loads", "evictions", "blk hits", "blk decodes", "blk dups")
	for _, si := range s.cache.Snapshot() {
		state := "cold"
		if si.Loaded {
			state = "loaded"
		}
		shards.Row(si.Key, si.Kind, fmt.Sprintf("v%d", si.Version), stats.Count(si.Entries), si.Bits,
			stats.Bytes(si.Bytes), stats.Bytes(si.RawBytes), state, si.Pinned, si.Hits, si.Misses, si.Loads, si.Evicts,
			si.BlockHits, si.BlockDecodes, si.BlockDuplicates)
	}
	budget := "unlimited"
	if s.cache.Budget() > 0 {
		budget = stats.Bytes(s.cache.Budget())
	}
	shards.Note("resident %s of budget %s", stats.Bytes(s.cache.Used()), budget)

	srv := stats.NewTable("server", "batches", "queries", "overloads", "query errors", "queue depth", "latency mean", "p50", "p99")
	srv.Row(
		stats.Count(s.m.batches.Count()),
		stats.Count(s.m.queries.Load()),
		stats.Count(s.m.overloads.Load()),
		stats.Count(s.m.errors.Load()),
		len(s.jobs),
		fmt.Sprintf("%.0f µs", s.m.latency.Mean()),
		fmt.Sprintf("%d µs", s.m.latency.Quantile(0.5)),
		fmt.Sprintf("%d µs", s.m.latency.Quantile(0.99)),
	)
	return []*stats.Table{shards, srv}
}
