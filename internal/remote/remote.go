// Package remote runs the paper's parallel retrograde-analysis algorithm
// over real TCP connections. Where package ra's Distributed engine models
// a 1995 cluster in virtual time, this engine is the deployable
// counterpart: worker nodes exchange length-prefixed binary frames over a
// full mesh of sockets, with message combining batching updates per
// destination — the algorithm as one would actually ship it.
//
// Both engines run the same protocol node, ra.Node; this package is its
// TCP transport. It runs the nodes as goroutines inside one process
// connected over loopback (the wire protocol is process-agnostic; nothing
// but the bootstrap assumes shared memory). TCP guarantees ordering only
// per connection, so a node reports a wave done only once it has heard
// the end-of-wave sentinel of every peer: by then every batch of the wave
// addressed to it has arrived. What only a real wire needs — the
// bootstrap, heartbeats and deadlines, the bye, and checkpoints at
// expand-wave entry — lives here. A checkpoint is no format of its own:
// each node saves its shard as a one-shard out-of-core store
// (oocore.SaveShard), the spill files and manifest an out-of-core solve
// writes.
package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"retrograde/internal/game"
	"retrograde/internal/ra"
	"retrograde/internal/sim"
)

// Frame types on the wire. The first four carry the protocol's messages
// and share ra.MsgKind's values; the mesh runs no async mode, so
// ra.MsgToken's value is no frame type and readFrame refuses it. The
// mesh's own frames are numbered after the last MsgKind.
const (
	frameBatch     = byte(ra.MsgBatch)     // combined updates
	frameEOW       = byte(ra.MsgSentinel)  // end-of-wave sentinel (per peer connection)
	frameDone      = byte(ra.MsgDone)      // phase completion report to the coordinator
	frameGo        = byte(ra.MsgGo)        // coordinator starts the next phase
	frameHeartbeat = byte(ra.MsgToken) + 1 // keep-alive so idle healthy conns never trip the deadline
	frameBye       = byte(ra.MsgToken) + 2 // orderly shutdown notice; EOF without it means a crash
)

// Engine solves games over TCP. It implements ra.Engine.
type Engine struct {
	// Workers is the number of nodes; 0 means 4.
	Workers int
	// Batch is the combining-buffer size in updates per frame; 0 means
	// 256, 1 disables combining.
	Batch int
	// Group is the block-cyclic partition group size; 0 means 1.
	Group uint64

	// Timeout bounds failure detection: a node that sends nothing (not
	// even a heartbeat) for this long is declared dead, and a write that
	// cannot complete within it fails. 0 means DefaultTimeout. A solve
	// with a crashed or wedged node returns a NodeFailedError within
	// roughly this bound instead of hanging. Every node sends a
	// heartbeat to each peer every Timeout/4, so a solve shorter than
	// that sends none.
	Timeout time.Duration

	// CheckpointDir enables crash-resumable solves: each node persists
	// its shard there every CheckpointEvery waves, and a later Solve in
	// the same directory resumes from the newest wave checkpointed by
	// every node. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the wave interval between checkpoints; 0 means 8.
	CheckpointEvery int

	// WrapConn, when non-nil, wraps every mesh connection endpoint
	// (local's view of the conn to peer) — the fault-injection hook for
	// internal/faultnet. Production runs leave it nil.
	WrapConn func(local, peer int, c net.Conn) net.Conn
}

func (e Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return 4
}

func (e Engine) batch() int {
	if e.Batch > 0 {
		return e.Batch
	}
	return 256
}

func (e Engine) group() uint64 {
	if e.Group > 0 {
		return e.Group
	}
	return 1
}

// Name implements ra.Engine.
func (e Engine) Name() string {
	return fmt.Sprintf("tcp(p=%d,batch=%d)", e.workers(), e.batch())
}

// Report describes the wire traffic of a finished run.
type Report struct {
	// Frames and Bytes count everything written to sockets.
	Frames, Bytes uint64
	// DataFrames counts update-carrying frames only.
	DataFrames uint64
}

// Solve implements ra.Engine.
func (e Engine) Solve(g game.Game) (*ra.Result, error) {
	r, _, err := e.SolveDetailed(g)
	return r, err
}

// SolveDetailed also returns the traffic report.
func (e Engine) SolveDetailed(g game.Game) (*ra.Result, *Report, error) {
	p := e.workers()
	part, err := ra.NewPartition(g.Size(), p, e.group())
	if err != nil {
		return nil, nil, err
	}

	// With checkpointing on, a previous run's state in the directory
	// takes precedence over a fresh start.
	var resume *resumeState
	if e.CheckpointDir != "" {
		if err := os.MkdirAll(e.CheckpointDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("remote: checkpoint dir: %w", err)
		}
		resume, err = loadResume(e.CheckpointDir, g, p)
		if err != nil {
			return nil, nil, fmt.Errorf("remote: resume: %w", err)
		}
		if resume != nil {
			part = resume.workers[0].Partition() // the restored workers' shards follow it
		}
	}

	conns, err := e.bootstrap(p)
	if err != nil {
		return nil, nil, err
	}
	eps := make([]*endpoint, p)
	errs := make(chan error, p)
	var wg sync.WaitGroup
	for i := range eps {
		ep := newEndpoint(i, g, part, e, conns[i], resume)
		eps[i] = ep
		wg.Add(1)
		go func(ep *endpoint) {
			defer wg.Done()
			if err := ep.run(); err != nil {
				errs <- fmt.Errorf("remote: node %d: %w", ep.id, err)
			}
		}(ep)
	}
	wg.Wait()
	close(errs)
	// A node that fails on its own (an Init error, a protocol violation)
	// closes its sockets, and the other nodes report that cascade as a
	// NodeFailedError naming it: prefer the node's own error, the cause.
	// When every error names a failed peer — a crash or a wedge — return
	// one of those.
	var firstErr error
	for err := range errs {
		var nf *NodeFailedError
		if !errors.As(err, &nf) {
			return nil, nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if e.CheckpointDir != "" {
		clearCheckpoints(e.CheckpointDir)
	}

	result := ra.NewResult(part, eps[0].node.Waves())
	var rep Report
	for _, ep := range eps {
		result.Collect(ep.node.Worker())
		rep.Frames += ep.framesSent.Load()
		rep.Bytes += ep.bytesSent.Load()
		rep.DataFrames += ep.dataFrames
	}
	return result, &rep, nil
}

// bootstrap builds the full mesh over loopback: every node listens, and
// node i dials every node j > i and announces its id in a one-byte hello.
// conns[i][j] is node i's end of the connection to node j. On any error
// every connection made so far is closed.
func (e Engine) bootstrap(p int) ([][]net.Conn, error) {
	conns := make([][]net.Conn, p)
	listeners := make([]net.Listener, 0, p)
	closeListeners := func() {
		for _, l := range listeners {
			l.Close()
		}
	}
	defer closeListeners()
	for i := range conns {
		conns[i] = make([]net.Conn, p)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("remote: listen: %w", err)
		}
		listeners = append(listeners, l)
	}
	var accepting sync.WaitGroup
	acceptErrs := make([]error, p)
	for i, l := range listeners {
		accepting.Add(1)
		go func() {
			defer accepting.Done()
			acceptErrs[i] = acceptPeers(l, i, e.timeout(), conns[i])
		}()
	}
	err := e.dialPeers(listeners, conns)
	if err != nil {
		closeListeners() // releases the accepts still waiting for a dial
	}
	accepting.Wait()
	if err == nil {
		err = errors.Join(acceptErrs...)
	}
	if err != nil {
		for _, row := range conns {
			for _, c := range row {
				if c != nil {
					c.Close()
				}
			}
		}
		return nil, fmt.Errorf("remote: bootstrap: %w", err)
	}
	return conns, nil
}

// dialPeers has every node i dial every node j > i and say hello.
func (e Engine) dialPeers(listeners []net.Listener, conns [][]net.Conn) error {
	for i := range conns {
		for j := i + 1; j < len(conns); j++ {
			c, err := net.DialTimeout("tcp", listeners[j].Addr().String(), e.timeout())
			if err != nil {
				return fmt.Errorf("dial node %d: %w", j, err)
			}
			conns[i][j] = c
			// The hello byte is armed like the accept side's read of it: a
			// peer that accepts but never drains must not wedge bootstrap.
			c.SetWriteDeadline(time.Now().Add(e.timeout()))
			if _, err := c.Write([]byte{byte(i)}); err != nil {
				return fmt.Errorf("hello to node %d: %w", j, err)
			}
			c.SetWriteDeadline(time.Time{})
		}
	}
	return nil
}

// acceptPeers accepts node i's connections from the i lower-numbered nodes
// into conns, indexed by the id each announces in its hello. A hello is
// read under the timeout, so a silent dialer fails the bootstrap instead
// of wedging it; one naming no lower node, or a node already connected,
// is refused and its connection closed. The caller closes conns on error.
func acceptPeers(l net.Listener, i int, timeout time.Duration, conns []net.Conn) error {
	for k := 0; k < i; k++ {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		c.SetReadDeadline(time.Now().Add(timeout))
		var hello [1]byte
		if _, err := io.ReadFull(c, hello[:]); err != nil {
			c.Close()
			return fmt.Errorf("node %d: reading hello: %w", i, err)
		}
		c.SetReadDeadline(time.Time{})
		if id := int(hello[0]); id >= i || conns[id] != nil {
			c.Close()
			return fmt.Errorf("node %d: refused hello from id %d (want each of 0..%d once)", i, id, i-1)
		}
		conns[hello[0]] = c
	}
	return nil
}

// event is a decoded frame plus its sender, serialized onto the
// endpoint's event channel by the per-connection reader goroutines.
type event struct {
	from    int
	kind    byte
	wave    int
	phase   ra.Phase
	work    uint64
	updates []ra.Update
	err     error
}

// endpoint is one mesh node's side of the wire and its ra.Node's
// Transport: the node's connections and their writers, the event channel
// its readers feed, failure detection and checkpoints.
type endpoint struct {
	id      int
	node    *ra.Node
	conns   []net.Conn
	writers []*writer
	events  chan event
	quit    chan struct{}

	eng Engine

	// framesSent/bytesSent are atomic: the heartbeat goroutine sends
	// concurrently with the run loop.
	framesSent, bytesSent atomic.Uint64
	dataFrames            uint64
}

func newEndpoint(id int, g game.Game, part *ra.Partition, e Engine, conns []net.Conn, resume *resumeState) *endpoint {
	ep := &endpoint{
		id:     id,
		conns:  conns,
		events: make(chan event, 4*len(conns)),
		quit:   make(chan struct{}),
		eng:    e,
	}
	ep.writers = make([]*writer, len(conns))
	for j, c := range conns {
		if c == nil {
			continue
		}
		if e.WrapConn != nil {
			c = e.WrapConn(id, j, c)
			conns[j] = c
		}
		ep.writers[j] = newWriter(c, e.timeout(), ep.peerFailed(j))
	}
	cfg := ra.NodeConfig{Combine: e.batch(), Chunk: 256}
	var w *ra.Worker
	if resume != nil {
		// The restored worker's state is "all waves before resume.wave
		// complete"; the node therefore reports resume.wave-1 done and the
		// coordinator replays resume.wave.
		w = resume.workers[id]
		cfg.Resumed, cfg.Wave, cfg.Waves = true, resume.wave-1, resume.waves
	} else {
		w, _ = ra.NewWorkerKernel(g, part, id, ra.KernelAuto) // Auto cannot fail
	}
	ep.node = ra.NewNode(w, ep, cfg)
	return ep
}

// peerFailed returns a callback delivering a peer-failure cause to the
// run loop (which wraps it with its phase and wave); used by the reader
// and writer goroutines of peer j's connection.
func (ep *endpoint) peerFailed(j int) func(error) {
	return func(cause error) {
		select {
		case ep.events <- event{from: j, err: cause}:
		case <-ep.quit:
		}
	}
}

// run starts the node and feeds it every peer's frames until it finishes.
func (ep *endpoint) run() error {
	for j, c := range ep.conns {
		if c != nil {
			go ep.reader(j, c)
		}
	}
	if len(ep.conns) > 1 {
		go ep.heartbeats(ep.eng.timeout() / heartbeatDiv)
	}
	defer func() {
		close(ep.quit)
		for _, w := range ep.writers {
			if w != nil {
				w.close()
			}
		}
	}()

	if err := ep.node.Start(); err != nil {
		return err
	}
	for !ep.node.Finished() {
		ev := <-ep.events
		if ev.err != nil {
			return &NodeFailedError{Node: ev.from, Phase: ep.node.Phase().String(), Wave: ep.node.Wave(), Err: ev.err}
		}
		if err := ep.node.Deliver(ra.Msg{Kind: ra.MsgKind(ev.kind), Phase: ev.phase, Wave: ev.wave, Work: ev.work, Updates: ev.updates}); err != nil {
			return err
		}
	}
	// Announce the orderly shutdown before sockets start closing, so
	// peers can tell this EOF from a crash.
	ep.broadcastFrame(encodeCtl(frameBye, ep.node.Wave(), 0, 0))
	return nil
}

// Send implements ra.Transport.
func (ep *endpoint) Send(dst int, m ra.Msg) {
	if m.Kind == ra.MsgBatch {
		ep.dataFrames++
		ep.sendFrame(dst, encodeBatch(m.Wave, m.Updates))
		return
	}
	ep.sendFrame(dst, encodeCtl(byte(m.Kind), m.Wave, m.Phase, m.Work))
}

// Broadcast implements ra.Transport.
func (ep *endpoint) Broadcast(m ra.Msg) {
	for j, w := range ep.writers {
		if w != nil {
			ep.Send(j, m)
		}
	}
}

// Busy implements ra.Transport: a real wire keeps no virtual clock.
func (*endpoint) Busy(sim.Time) {}

// Sentinels implements ra.Transport: TCP orders traffic only per
// connection, so a wave is complete once every peer's sentinel is in.
func (ep *endpoint) Sentinels() int { return len(ep.conns) - 1 }

// BeginExpand implements ra.Transport. Entry of an expand wave is the one
// checkpoint-safe moment: all earlier waves are fully applied, this wave
// has not started, and its traffic (even the part that arrived early)
// will be regenerated by the re-run.
func (ep *endpoint) BeginExpand(wave int) error {
	if ep.eng.CheckpointDir == "" || wave%ep.eng.ckptEvery() != 0 {
		return nil
	}
	return ep.writeCheckpoint(wave)
}

func (ep *endpoint) sendFrame(dst int, frame []byte) {
	ep.framesSent.Add(1)
	ep.bytesSent.Add(uint64(len(frame)))
	ep.writers[dst].enqueue(frame)
}

// broadcastFrame sends one control frame to every peer.
func (ep *endpoint) broadcastFrame(frame []byte) {
	for j, w := range ep.writers {
		if w != nil {
			ep.sendFrame(j, frame)
		}
	}
}

// reader decodes frames from one peer connection onto the event channel.
// Every read is armed with the failure-detection deadline: heartbeats
// keep a healthy idle connection alive, so tripping it means the peer is
// wedged. An EOF counts as orderly only after the peer's bye frame;
// without one, the peer crashed.
func (ep *endpoint) reader(from int, c net.Conn) {
	br := bufio.NewReader(c)
	sawBye := false
	for {
		c.SetReadDeadline(time.Now().Add(ep.eng.timeout()))
		ev, err := readFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) && sawBye {
				return
			}
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("connection closed without bye: %w", io.ErrUnexpectedEOF)
			}
			ep.peerFailed(from)(err)
			return
		}
		switch ev.kind {
		case frameHeartbeat:
			continue // its arrival already reset the deadline
		case frameBye:
			sawBye = true
			continue
		}
		ev.from = from
		select {
		case ep.events <- ev:
		case <-ep.quit:
			return
		}
	}
}

// Wire format: length(4, LE, excluding itself) | type(1) | wave(4) |
// then per type: batch: count(4) + count*(target 8, value 2);
// done: work(8); go: phase(1); eow: nothing.

func encodeBatch(wave int, updates []ra.Update) []byte {
	buf := make([]byte, 4+1+4+4+len(updates)*10)
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	buf[4] = frameBatch
	binary.LittleEndian.PutUint32(buf[5:], uint32(wave))
	binary.LittleEndian.PutUint32(buf[9:], uint32(len(updates)))
	off := 13
	for _, u := range updates {
		binary.LittleEndian.PutUint64(buf[off:], u.Target)
		binary.LittleEndian.PutUint16(buf[off+8:], uint16(u.Value))
		off += 10
	}
	return buf
}

func encodeCtl(kind byte, wave int, phase ra.Phase, work uint64) []byte {
	var body int
	switch kind {
	case frameDone:
		body = 8
	case frameGo:
		body = 1
	}
	buf := make([]byte, 4+1+4+body)
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	buf[4] = kind
	binary.LittleEndian.PutUint32(buf[5:], uint32(wave))
	switch kind {
	case frameDone:
		binary.LittleEndian.PutUint64(buf[9:], work)
	case frameGo:
		buf[9] = byte(phase)
	}
	return buf
}

func readFrame(r *bufio.Reader) (event, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return event{}, err
	}
	size := binary.LittleEndian.Uint32(head[:])
	if size < 5 || size > 64<<20 {
		return event{}, fmt.Errorf("remote: implausible frame size %d", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return event{}, err
	}
	ev := event{kind: body[0], wave: int(binary.LittleEndian.Uint32(body[1:]))}
	switch ev.kind {
	case frameBatch:
		// The count is checked against the body in 64 bits: a 32-bit
		// product wraps, and a tiny frame would pass for a huge batch.
		if len(body) < 9 || uint64(len(body)) != 9+10*uint64(binary.LittleEndian.Uint32(body[5:])) {
			return event{}, fmt.Errorf("remote: batch frame size mismatch")
		}
		ev.updates = make([]ra.Update, (len(body)-9)/10)
		off := 9
		for i := range ev.updates {
			ev.updates[i].Target = binary.LittleEndian.Uint64(body[off:])
			ev.updates[i].Value = game.Value(binary.LittleEndian.Uint16(body[off+8:]))
			off += 10
		}
	case frameDone:
		if len(body) != 13 {
			return event{}, fmt.Errorf("remote: done frame size mismatch")
		}
		ev.work = binary.LittleEndian.Uint64(body[5:])
	case frameGo:
		if len(body) != 6 {
			return event{}, fmt.Errorf("remote: go frame size mismatch")
		}
		ev.phase = ra.Phase(body[5])
	case frameEOW, frameHeartbeat, frameBye:
		if len(body) != 5 {
			return event{}, fmt.Errorf("remote: ctl frame size mismatch")
		}
	default:
		return event{}, fmt.Errorf("remote: unknown frame type %d", ev.kind)
	}
	return ev, nil
}

// writer serializes frame writes to one connection through an unbounded
// queue drained by a dedicated goroutine, so senders never block on slow
// peers (which could deadlock the mesh).
type writer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   [][]byte
	closed  bool
	conn    net.Conn
	done    chan struct{}
	timeout time.Duration
	onErr   func(error) // reports a stalled or failed write; may be nil
}

func newWriter(c net.Conn, timeout time.Duration, onErr func(error)) *writer {
	w := &writer{conn: c, done: make(chan struct{}), timeout: timeout, onErr: onErr}
	w.cond = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

func (w *writer) enqueue(frame []byte) {
	w.mu.Lock()
	if !w.closed {
		w.queue = append(w.queue, frame)
	}
	w.mu.Unlock()
	w.cond.Signal()
}

func (w *writer) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Signal()
	<-w.done
	w.conn.Close()
}

func (w *writer) loop() {
	defer close(w.done)
	bw := bufio.NewWriter(w.conn)
	fail := func(err error) {
		if w.onErr != nil {
			w.onErr(err)
		}
	}
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.queue) == 0 && w.closed {
			w.mu.Unlock()
			bw.Flush()
			return
		}
		batch := w.queue
		w.queue = nil
		w.mu.Unlock()
		// A write deadline bounds every flush: a peer that stops reading
		// (wedged, not crashed) would otherwise stall this goroutine — and
		// close() waits for it, so the whole solve would hang.
		if w.timeout > 0 {
			w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		}
		for _, frame := range batch {
			if _, err := bw.Write(frame); err != nil {
				fail(err)
				return
			}
		}
		if err := bw.Flush(); err != nil {
			fail(err)
			return
		}
	}
}
