package server

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"retrograde/internal/awari"
	"retrograde/internal/stats"
)

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

// job is one admitted batch travelling through the queue.
type job struct {
	queries []Query
	answers []Answer
	done    chan struct{}
}

// Server answers endgame-database queries: a shard cache, a bounded job
// queue and a pool of workers behind a Frontend (binary protocol and
// HTTP on one listener). Create one with Start; stop it with Close.
type Server struct {
	cfg   Config
	cache *Cache
	front *Frontend
	jobs  chan *job

	wg        sync.WaitGroup // workers
	closeOnce sync.Once

	queryErrors atomic.Uint64 // per-query failures
}

// Start discovers shards under cfg.Dir, listens on addr (e.g.
// "127.0.0.1:0") and serves until Close. It returns once the listener
// is ready.
func Start(addr string, cfg Config) (*Server, error) {
	cache, err := NewCache(cfg.Dir, cfg.MemBudget)
	if err != nil {
		return nil, err
	}
	front, err := Listen(addr, cfg.WrapConn)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cache: cache,
		front: front,
		jobs:  make(chan *job, cfg.queueDepth()),
	}
	for i := 0; i < cfg.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	front.Serve(s.execute, s.httpMux())
	return s, nil
}

// Addr returns the listener's address (for addr ":0" setups).
func (s *Server) Addr() string { return s.front.Addr() }

// Cache returns the shard cache (for statistics).
func (s *Server) Cache() *Cache { return s.cache }

// Close shuts the server down gracefully: the front end drains (new
// batches are refused with overload responses, everything admitted is
// answered), then the workers stop. Closing twice is a no-op.
func (s *Server) Close() error {
	err := s.front.Close()
	s.closeOnce.Do(func() {
		close(s.jobs) // nothing is in flight any more; workers exit
		s.wg.Wait()
	})
	return err
}

// execute is the front end's handler: it queues the batch and waits for
// its answers; a full queue sheds it.
func (s *Server) execute(qs []Query) ([]Answer, error) {
	j := &job{queries: qs, done: make(chan struct{})}
	select {
	case s.jobs <- j:
	default:
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
// are pinned once (rungs 0..maxN), every board query in the batch is
// answered against that pinned set, and probes pin their own shard. Pins
// guarantee concurrent evictions never race a lookup.
func (s *Server) serveJob(j *job) {
	j.answers = make([]Answer, len(j.queries))

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
			s.queryErrors.Add(1)
		}
	}
}

// probe answers a raw table lookup.
func (s *Server) probe(q *Query) Answer {
	pin, err := s.cache.Acquire(q.Shard)
	if err != nil {
		return Answer{Err: err.Error()}
	}
	defer pin.Release()
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

// ServerMetrics is the machine-readable request-path snapshot behind
// /metrics: what a fleet dashboard scrapes, where /stats renders tables
// for humans.
type ServerMetrics struct {
	FrontMetrics
	QueryErrors   uint64 `json:"queryErrors"`
	QueueDepth    int    `json:"queueDepth"`
	ResidentBytes uint64 `json:"residentBytes"`
	BudgetBytes   uint64 `json:"budgetBytes"`
}

// Metrics snapshots the server-wide counters.
func (s *Server) Metrics() ServerMetrics {
	return ServerMetrics{
		FrontMetrics:  s.front.Metrics(),
		QueryErrors:   s.queryErrors.Load(),
		QueueDepth:    len(s.jobs),
		ResidentBytes: s.cache.Used(),
		BudgetBytes:   s.cache.Budget(),
	}
}

// StatsTables renders the server's observability surface: per-shard
// cache counters and the request-path summary.
func (s *Server) StatsTables() []*stats.Table {
	shards := stats.NewTable("shards", "shard", "fmt", "entries", "bits", "size", "raw", "state", "pins", "hits", "misses", "loads", "evictions", "lookups")
	for _, si := range s.cache.Snapshot() {
		state := "cold"
		if si.Loaded {
			state = "loaded"
		}
		shards.Row(si.Key, fmt.Sprintf("v%d", si.Version), stats.Count(si.Entries), si.Bits,
			stats.Bytes(si.Bytes), stats.Bytes(si.RawBytes), state, si.Pinned, si.Hits, si.Misses, si.Loads, si.Evicts,
			si.Lookups)
	}
	budget := "unlimited"
	if s.cache.Budget() > 0 {
		budget = stats.Bytes(s.cache.Budget())
	}
	shards.Note("resident %s of budget %s", stats.Bytes(s.cache.Used()), budget)

	m := s.Metrics()
	srv := stats.NewTable("server", "batches", "queries", "overloads", "query errors", "queue depth", "latency mean", "p50", "p99")
	srv.Row(
		stats.Count(m.Batches),
		stats.Count(m.Queries),
		stats.Count(m.Overloads),
		stats.Count(m.QueryErrors),
		m.QueueDepth,
		fmt.Sprintf("%.0f µs", m.LatencyMeanMicros),
		fmt.Sprintf("%d µs", m.LatencyP50Micros),
		fmt.Sprintf("%d µs", m.LatencyP99Micros),
	)
	return []*stats.Table{shards, srv}
}
