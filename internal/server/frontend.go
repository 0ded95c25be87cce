package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"retrograde/internal/stats"
)

// ErrOverloaded is returned when a batch is shed: the handler refused it
// (raserve's bounded queue is full, rabroker is at its routing limit) or
// the front end is draining for shutdown. Clients should back off and
// retry rather than pile on.
var ErrOverloaded = errors.New("server: overloaded")

// The front end's deadlines. Binary-protocol connections are long-lived
// and may idle between batches, so the read and idle timeouts bound only
// the embedded HTTP server (request read, keep-alive idle); the write
// timeout bounds the HTTP response and every binary reply write, so a
// peer that stops draining its socket cannot wedge a reply goroutine
// forever.
const (
	readTimeout  = 30 * time.Second
	writeTimeout = 60 * time.Second
	idleTimeout  = 2 * time.Minute
)

// Handler answers one admitted batch, answers in query order. Returning
// ErrOverloaded sheds the batch: the peer gets an overload frame (or a
// 503) instead of answers.
type Handler func([]Query) ([]Answer, error)

// Frontend is the serving tier's one front end: a single listener that
// speaks the length-framed binary batch protocol and HTTP (sniffed from
// each connection's first bytes), admits batches against a graceful
// drain, and counts what passes. raserve and rabroker differ only in
// the Handler and the http.Handler they serve through it. Create one
// with Listen, start it with Serve, stop it with Close.
type Frontend struct {
	l       net.Listener
	wrap    func(net.Conn) net.Conn
	handler Handler
	httpL   *httpListener
	httpSrv *http.Server

	// admitMu orders admission against draining: once draining is set
	// under the mutex, no new batch can enter inflight, so Close's
	// inflight.Wait() covers every admitted batch completely (including
	// its binary reply write).
	admitMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	connsTorn bool // Close has swept conns; late arrivals must self-close

	wg sync.WaitGroup // accept loop, HTTP server, connection readers

	batches   stats.Histogram // batch sizes (queries per batch)
	latency   stats.Histogram // handler time per batch, microseconds
	queries   atomic.Uint64
	overloads atomic.Uint64
	pings     atomic.Uint64
}

// Listen binds addr (e.g. "127.0.0.1:0") without accepting yet: the
// owner finishes building itself around the returned Frontend (its HTTP
// handlers call Do) and then calls Serve, so no connection can reach a
// half-built owner. wrap, when non-nil, wraps every accepted connection
// — the fault-injection hook for internal/faultnet.
func Listen(addr string, wrap func(net.Conn) net.Conn) (*Frontend, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Frontend{
		l:     l,
		wrap:  wrap,
		httpL: newHTTPListener(l.Addr()),
		httpSrv: &http.Server{
			ReadTimeout:  readTimeout,
			WriteTimeout: writeTimeout,
			IdleTimeout:  idleTimeout,
		},
		conns: map[net.Conn]struct{}{},
	}, nil
}

// Serve starts accepting: binary batches go to h, HTTP requests to mux.
// Call it once.
func (f *Frontend) Serve(h Handler, mux http.Handler) {
	f.handler = h
	f.httpSrv.Handler = mux
	f.wg.Add(2)
	go f.acceptLoop()
	go func() {
		defer f.wg.Done()
		f.httpSrv.Serve(f.httpL) // returns once Close shuts it down
	}()
}

// Addr returns the listener's address (for addr ":0" setups).
func (f *Frontend) Addr() string { return f.l.Addr().String() }

// Close shuts the front end down gracefully: it stops accepting, refuses
// new batches with overload responses, lets everything already admitted
// be answered and written, then tears the connections down. When it
// returns no handler call is running and none will start. Closing twice
// is a no-op.
func (f *Frontend) Close() error {
	f.admitMu.Lock()
	if f.draining {
		f.admitMu.Unlock()
		return nil
	}
	f.draining = true
	f.admitMu.Unlock()

	err := f.l.Close() // acceptLoop exits
	f.inflight.Wait()  // every admitted batch answered, binary replies written
	// net/http flushes a response only after its handler returns, so an
	// admitted HTTP answer may still be on its way out: let active
	// requests finish before dropping what is left.
	ctx, cancel := context.WithTimeout(context.Background(), writeTimeout)
	if f.httpSrv.Shutdown(ctx) != nil {
		f.httpSrv.Close()
	}
	cancel()
	f.httpL.Close()
	f.connMu.Lock() // binary connections torn down, readers exit
	f.connsTorn = true
	for c := range f.conns {
		c.Close()
	}
	f.connMu.Unlock()
	f.wg.Wait()
	return err
}

// admit takes an inflight reference for one batch; false means the front
// end is draining. The caller must call f.inflight.Done() once the batch
// is fully answered.
func (f *Frontend) admit() bool {
	f.admitMu.Lock()
	defer f.admitMu.Unlock()
	if f.draining {
		return false
	}
	f.inflight.Add(1)
	return true
}

// Do runs one batch through admission, the handler and the counters —
// the entry the binary frame loop and the owner's HTTP query handlers
// share. ErrOverloaded means the batch was shed.
func (f *Frontend) Do(qs []Query) ([]Answer, error) {
	if !f.admit() {
		f.overloads.Add(1)
		return nil, ErrOverloaded
	}
	defer f.inflight.Done()
	return f.run(qs)
}

// run calls the handler for an admitted batch and counts the outcome.
func (f *Frontend) run(qs []Query) ([]Answer, error) {
	start := time.Now()
	answers, err := f.handler(qs)
	if err != nil {
		f.overloads.Add(1)
		return nil, ErrOverloaded
	}
	f.batches.Observe(uint64(len(qs)))
	f.queries.Add(uint64(len(qs)))
	f.latency.Observe(uint64(time.Since(start).Microseconds()))
	return answers, nil
}

// acceptLoop hands every accepted connection to its own reader.
func (f *Frontend) acceptLoop() {
	defer f.wg.Done()
	for {
		c, err := f.l.Accept()
		if err != nil {
			return
		}
		if f.wrap != nil {
			c = f.wrap(c)
		}
		f.wg.Add(1)
		go f.serveConn(c)
	}
}

// serveConn sniffs the connection's first bytes: HTTP methods go to the
// embedded HTTP server, everything else speaks the binary protocol.
func (f *Frontend) serveConn(c net.Conn) {
	defer f.wg.Done()
	// Track before the first read: a connection accepted just as Close
	// sweeps f.conns would otherwise be closed by nobody, and Close's
	// wg.Wait() would hang on its blocked reader.
	if !f.track(c) {
		c.Close()
		return
	}
	br := bufio.NewReader(c)
	first, err := br.Peek(4)
	if err != nil {
		f.untrack(c)
		c.Close()
		return
	}
	if isHTTP(first) {
		// Hand the connection (with its peeked bytes) to net/http; the
		// HTTP server owns its lifecycle from here.
		f.untrack(c)
		f.httpL.deliver(&bufConn{Conn: c, r: br})
		return
	}
	defer f.untrack(c)
	defer c.Close()

	var wmu sync.Mutex // replies from concurrent batches interleave per frame
	// reply writes one frame under a fresh deadline. A failed or short
	// write leaves a torn frame on the wire, and anything written after
	// it would be decoded as garbage: close the connection instead, so
	// the reader below exits and the client's reconnect logic takes over.
	reply := func(frame []byte) {
		wmu.Lock()
		defer wmu.Unlock()
		c.SetWriteDeadline(time.Now().Add(writeTimeout))
		if n, err := c.Write(frame); err != nil || n < len(frame) {
			c.Close()
		}
	}
	var pending sync.WaitGroup
	defer pending.Wait()
	for {
		kind, body, err := readFrame(br)
		if err != nil {
			return
		}
		if kind == FramePing {
			// Liveness probes bypass admission and the handler: a loaded or
			// draining server is still alive, and health checkers must see
			// that distinction.
			id, err := frameID(body)
			if err != nil {
				return
			}
			f.pings.Add(1)
			reply(encodePong(id))
			continue
		}
		if kind != FrameQuery {
			return
		}
		id, qs, err := decodeQueries(body)
		if err != nil {
			return
		}
		if !f.admit() {
			f.overloads.Add(1)
			reply(encodeOverload(id))
			continue
		}
		// Each batch runs in its own goroutine so one connection can
		// pipeline batches; the handler's own bound is the backpressure.
		pending.Add(1)
		go func() {
			defer pending.Done()
			defer f.inflight.Done()
			if answers, err := f.run(qs); err != nil {
				reply(encodeOverload(id))
			} else {
				reply(encodeAnswers(id, answers))
			}
		}()
	}
}

// track registers a live connection for teardown; false means Close has
// already swept the set and the caller must close c itself.
func (f *Frontend) track(c net.Conn) bool {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	if f.connsTorn {
		return false
	}
	f.conns[c] = struct{}{}
	return true
}

func (f *Frontend) untrack(c net.Conn) {
	f.connMu.Lock()
	delete(f.conns, c)
	f.connMu.Unlock()
}

// FrontMetrics are the front-side counters, embedded in raserve's and
// rabroker's /metrics "server" block (encoding/json flattens it).
type FrontMetrics struct {
	Batches           uint64  `json:"batches"`
	Queries           uint64  `json:"queries"`
	Overloads         uint64  `json:"overloads"` // overload frames and 503s produced
	Pings             uint64  `json:"pings"`
	LatencyMeanMicros float64 `json:"latencyMeanMicros"`
	LatencyP50Micros  uint64  `json:"latencyP50Micros"`
	LatencyP99Micros  uint64  `json:"latencyP99Micros"`
	LatencyP999Micros uint64  `json:"latencyP999Micros"`
}

// Metrics snapshots the front-side counters.
func (f *Frontend) Metrics() FrontMetrics {
	return FrontMetrics{
		Batches:           f.batches.Count(),
		Queries:           f.queries.Load(),
		Overloads:         f.overloads.Load(),
		Pings:             f.pings.Load(),
		LatencyMeanMicros: f.latency.Mean(),
		LatencyP50Micros:  f.latency.Quantile(0.5),
		LatencyP99Micros:  f.latency.Quantile(0.99),
		LatencyP999Micros: f.latency.Quantile(0.999),
	}
}
