package server

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/game"
)

// ErrClientClosed is returned by every call — pending or future — on a
// Client that has been Closed.
var ErrClientClosed = errors.New("server: client closed")

// ClientConfig tunes the client's failure handling. The zero value keeps
// the original semantics: no retries, no per-call deadline.
type ClientConfig struct {
	// Retries is how many times a failed attempt is retried. Every query
	// kind is an idempotent read, so retrying is always safe: connection
	// errors trigger a reconnect, overload replies just back off. 0
	// disables retries.
	Retries int
	// Backoff is the delay before the first retry, doubled per attempt
	// with jitter; 0 means 50ms.
	Backoff time.Duration
	// MaxBackoff caps the backoff growth; 0 means 2s.
	MaxBackoff time.Duration
	// Timeout bounds one call end to end — every attempt, backoff and
	// reconnect included. 0 means no deadline.
	Timeout time.Duration
}

func (cfg ClientConfig) backoff() time.Duration {
	if cfg.Backoff > 0 {
		return cfg.Backoff
	}
	return 50 * time.Millisecond
}

func (cfg ClientConfig) maxBackoff() time.Duration {
	if cfg.MaxBackoff > 0 {
		return cfg.MaxBackoff
	}
	return 2 * time.Second
}

// Client speaks the binary protocol to a Server. It is safe for
// concurrent use: batches are pipelined over one connection and matched
// to their replies by request id. A client with a non-zero
// ClientConfig.Retries survives connection loss by redialing with
// exponential backoff.
type Client struct {
	addr string
	cfg  ClientConfig

	wmu sync.Mutex // serialises frame writes to the current connection

	mu        sync.Mutex
	conn      net.Conn // nil while disconnected
	bw        *bufio.Writer
	pending   map[uint32]chan clientReply
	nextID    uint32
	connErr   error // why the last connection died
	closed    bool
	connected bool // a connection has succeeded at least once

	unknown    atomic.Uint64 // replies that matched no waiting call
	reconnects atomic.Uint64
	retries    atomic.Uint64
}

// ClientStats are the client-side wire counters — the fleet-observability
// numbers /metrics exports on raserve and rabroker.
type ClientStats struct {
	// UnknownReplies counts replies whose request id matched no waiting
	// call: a late reply after a call deadline, or a confused server.
	UnknownReplies uint64 `json:"unknownReplies"`
	// Reconnects counts successful re-dials after a connection loss.
	Reconnects uint64 `json:"reconnects"`
	// Retries counts attempts beyond the first across all calls.
	Retries uint64 `json:"retries"`
}

type clientReply struct {
	answers    []Answer
	overloaded bool
	pong       bool
}

// Dial connects to a server at addr with the zero (no-retry) config.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, ClientConfig{})
}

// DialConfig connects to a server at addr. The initial dial failure is
// returned immediately (a wrong address should not burn retries);
// reconnection and retry policy apply from then on.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	c := &Client{addr: addr, cfg: cfg, pending: map[uint32]chan clientReply{}}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns the client's wire counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		UnknownReplies: c.unknown.Load(),
		Reconnects:     c.reconnects.Load(),
		Retries:        c.retries.Load(),
	}
}

// connectLocked (re-)establishes the connection; c.mu must be held.
func (c *Client) connectLocked() error {
	if c.closed {
		return ErrClientClosed
	}
	if c.conn != nil {
		return nil
	}
	dialTimeout := c.cfg.Timeout
	if dialTimeout <= 0 {
		dialTimeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		c.connErr = err
		return err
	}
	if c.connected {
		c.reconnects.Add(1)
	}
	c.connected = true
	c.conn = conn
	c.bw = bufio.NewWriter(conn)
	c.connErr = nil
	go c.reader(conn)
	return nil
}

// Close tears the client down: the connection is closed, pending calls
// fail with ErrClientClosed, and so does everything after. Closing twice
// is a no-op.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn, c.bw = nil, nil
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// reader dispatches reply frames to their waiting batches. On connection
// error every call pending on this connection fails; whether the client
// redials is the retry policy's call.
func (c *Client) reader(conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		kind, body, err := readFrame(br)
		if err != nil {
			c.dropConn(conn, fmt.Errorf("server: connection lost: %w", err))
			return
		}
		var rep clientReply
		var id uint32
		switch kind {
		case FrameReply:
			id, rep.answers, err = DecodeAnswers(body)
			if err != nil {
				c.dropConn(conn, err)
				return
			}
		case FrameOverload, FramePong:
			var err error
			if id, err = frameID(body); err != nil {
				c.dropConn(conn, err)
				return
			}
			rep.overloaded = kind == FrameOverload
			rep.pong = kind == FramePong
		default:
			c.dropConn(conn, fmt.Errorf("server: unexpected frame type %d", kind))
			return
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- rep
		} else {
			// Nobody is waiting: the call timed out or the server sent an
			// id it invented. Count it — silent drops hide protocol bugs.
			c.unknown.Add(1)
		}
	}
}

// dropConn retires a broken connection: calls pending on it fail, and
// the next attempt redials. No-op if conn is no longer current.
func (c *Client) dropConn(conn net.Conn, err error) {
	conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != conn {
		return
	}
	c.conn, c.bw = nil, nil
	c.connErr = err
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
}

func (c *Client) forget(id uint32) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Do sends one batch and waits for its answers (same order as the
// queries). It returns ErrOverloaded when the server sheds the batch and
// retries are exhausted (or disabled), and ErrClientClosed after Close.
func (c *Client) Do(qs []Query) ([]Answer, error) {
	var deadline time.Time
	if c.cfg.Timeout > 0 {
		deadline = time.Now().Add(c.cfg.Timeout)
	}
	var lastErr error
	attempts := 0
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		answers, retryable, err := c.attempt(qs, deadline)
		if err == nil {
			return answers, nil
		}
		lastErr = err
		attempts = attempt + 1
		if !retryable || attempt == c.cfg.Retries {
			break
		}
		// Exponential backoff with jitter, bounded by the call deadline.
		d := c.cfg.backoff()
		for i := 0; i < attempt && d < c.cfg.maxBackoff(); i++ {
			d *= 2
		}
		if max := c.cfg.maxBackoff(); d > max {
			d = max
		}
		d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
		if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
			lastErr = fmt.Errorf("server: call deadline %v exhausted: %w", c.cfg.Timeout, lastErr)
			break
		}
		time.Sleep(d)
	}
	if attempts > 1 {
		return nil, fmt.Errorf("server: giving up after %d attempts: %w", attempts, lastErr)
	}
	return nil, lastErr
}

// attempt runs one send/receive round. retryable marks failures a
// reconnect or backoff could cure: connection trouble and overloads.
func (c *Client) attempt(qs []Query, deadline time.Time) (answers []Answer, retryable bool, err error) {
	c.mu.Lock()
	if err := c.connectLocked(); err != nil {
		c.mu.Unlock()
		return nil, !errors.Is(err, ErrClientClosed), err
	}
	conn, bw := c.conn, c.bw
	id := c.nextID
	c.nextID++
	ch := make(chan clientReply, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	frame, err := EncodeQueries(id, qs)
	if err != nil {
		c.forget(id)
		return nil, false, err
	}
	c.wmu.Lock()
	conn.SetWriteDeadline(deadline) // zero deadline = no limit
	_, err = bw.Write(frame)
	if err == nil {
		err = bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.forget(id)
		c.dropConn(conn, err)
		return nil, true, err
	}

	var timer <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timer = t.C
	}
	select {
	case rep, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err, closed := c.connErr, c.closed
			c.mu.Unlock()
			if closed {
				return nil, false, ErrClientClosed
			}
			if err == nil {
				err = errors.New("server: connection lost")
			}
			return nil, true, err
		}
		if rep.overloaded {
			return nil, true, ErrOverloaded
		}
		if len(rep.answers) != len(qs) {
			return nil, false, fmt.Errorf("server: %d answers for %d queries", len(rep.answers), len(qs))
		}
		return rep.answers, false, nil
	case <-timer:
		// The reply may still arrive; with no waiter left it will land in
		// the unknown-replies counter.
		c.forget(id)
		return nil, false, fmt.Errorf("server: call timed out after %v", c.cfg.Timeout)
	}
}

// Ping performs one liveness round trip: a FramePing answered by a
// FramePong, bypassing the server's query queue. Unlike Do it never
// retries — a health checker wants the truthful state of this instant,
// not the eventual success a backoff loop would manufacture. timeout
// bounds the round trip (0 falls back to the client config's Timeout,
// and failing that 2s).
func (c *Client) Ping(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = c.cfg.Timeout
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	deadline := time.Now().Add(timeout)

	c.mu.Lock()
	if err := c.connectLocked(); err != nil {
		c.mu.Unlock()
		return err
	}
	conn, bw := c.conn, c.bw
	id := c.nextID
	c.nextID++
	ch := make(chan clientReply, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	conn.SetWriteDeadline(deadline)
	_, err := bw.Write(EncodePing(id))
	if err == nil {
		err = bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.forget(id)
		c.dropConn(conn, err)
		return err
	}

	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case rep, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err, closed := c.connErr, c.closed
			c.mu.Unlock()
			if closed {
				return ErrClientClosed
			}
			if err == nil {
				err = errors.New("server: connection lost")
			}
			return err
		}
		if !rep.pong {
			return fmt.Errorf("server: ping answered by the wrong frame type")
		}
		return nil
	case <-t.C:
		c.forget(id)
		return fmt.Errorf("server: ping timed out after %v", timeout)
	}
}

// one runs a single query and surfaces its per-query error.
func (c *Client) one(q Query) (Answer, error) {
	as, err := c.Do([]Query{q})
	if err != nil {
		return Answer{}, err
	}
	if as[0].Err != "" {
		return Answer{}, errors.New(as[0].Err)
	}
	return as[0], nil
}

// Value returns the database value of an awari board.
func (c *Client) Value(b awari.Board) (game.Value, error) {
	a, err := c.one(Query{Kind: KindValue, Board: b})
	return a.Value, err
}

// BestMove returns the board's database value and best move; pit is -1
// for terminal positions.
func (c *Client) BestMove(b awari.Board) (pit int, value game.Value, err error) {
	a, err := c.one(Query{Kind: KindBestMove, Board: b})
	return a.Pit, a.Value, err
}

// Line returns the board's value and its optimal line, up to maxPlies
// plies.
func (c *Client) Line(b awari.Board, maxPlies int) (game.Value, []int8, error) {
	a, err := c.one(Query{Kind: KindLine, Board: b, MaxPlies: maxPlies})
	return a.Value, a.Line, err
}

// Probe returns entry idx of the named shard (any game's table).
func (c *Client) Probe(shard string, idx uint64) (game.Value, error) {
	a, err := c.one(Query{Kind: KindProbe, Shard: shard, Index: idx})
	return a.Value, err
}

// Prober adapts a Client to the error-free probing interface
// internal/search consumes (search.Prober). Network failures are
// recorded and reported by Err; failed probes return 0, so a search
// that used a failing prober must be discarded once Err is non-nil.
type Prober struct {
	c *Client

	mu  sync.Mutex
	err error
}

// NewProber wraps the client for use as a search prober.
func NewProber(c *Client) *Prober { return &Prober{c: c} }

// Err returns the first probe failure, if any.
func (p *Prober) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *Prober) record(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// Value implements search.Prober.
func (p *Prober) Value(b awari.Board) game.Value {
	v, err := p.c.Value(b)
	if err != nil {
		p.record(err)
		return 0
	}
	return v
}

// BestMove implements search.Prober.
func (p *Prober) BestMove(b awari.Board) (pit int, value game.Value, ok bool) {
	pit, v, err := p.c.BestMove(b)
	if err != nil {
		p.record(err)
		return -1, 0, false
	}
	if pit < 0 {
		return 0, 0, false
	}
	return pit, v, true
}
