// Package remote runs the paper's parallel retrograde-analysis algorithm
// over real TCP connections. Where package ra's Distributed engine models
// a 1995 cluster in virtual time, this engine is the deployable
// counterpart: worker nodes exchange length-prefixed binary frames over a
// full mesh of sockets, with message combining batching updates per
// destination — the algorithm as one would actually ship it.
//
// The engine runs its nodes as goroutines inside one process connected
// over loopback (the wire protocol is process-agnostic; nothing but the
// bootstrap assumes shared memory). TCP guarantees ordering only per
// connection, so the wave barrier uses end-of-wave sentinels: a node has
// seen every wave-w batch once the sentinel of every peer has arrived on
// its connection, at which point it reports done to the coordinator.
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

	"retrograde/internal/combine"
	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// Frame types on the wire.
const (
	frameBatch     byte = iota + 1 // combined updates
	frameEOW                       // end-of-wave sentinel (per peer connection)
	frameDone                      // phase completion report to the coordinator
	frameGo                        // coordinator starts the next phase
	frameHeartbeat                 // keep-alive so idle healthy conns never trip the deadline
	frameBye                       // orderly shutdown notice; EOF without it means a crash
)

// Phases, mirroring the simulated engine's protocol.
const (
	phaseExpand byte = iota + 1
	phaseLoops
	phaseFinish
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
	// roughly this bound instead of hanging.
	Timeout time.Duration
	// Heartbeat is the keep-alive interval; 0 means Timeout/4. Negative
	// disables heartbeats entirely — only for measuring their cost
	// (experiments/E12): without beats a healthy-but-quiet peer trips
	// the read deadline, so pair a disabled heartbeat with a Timeout
	// longer than the whole solve.
	Heartbeat time.Duration

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
			part = resume.part // the restored workers' shards follow it
		}
	}

	// Bootstrap: every node listens on loopback, then the mesh is built
	// by having node i dial every node j > i; the dialer announces its id
	// in a one-byte hello. Hellos carry a read deadline so a wedged
	// bootstrap fails instead of hanging.
	listeners := make([]net.Listener, p)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, fmt.Errorf("remote: listen: %w", err)
		}
		listeners[i] = l
		defer l.Close()
	}
	conns := make([][]net.Conn, p)
	for i := range conns {
		conns[i] = make([]net.Conn, p)
	}
	var bootstrap sync.WaitGroup
	bootErr := make(chan error, p)
	for i := 0; i < p; i++ {
		// Accept connections from all lower-numbered nodes.
		expect := i
		bootstrap.Add(1)
		go func(i, expect int) {
			defer bootstrap.Done()
			for k := 0; k < expect; k++ {
				c, err := listeners[i].Accept()
				if err != nil {
					bootErr <- err
					return
				}
				c.SetReadDeadline(time.Now().Add(e.timeout()))
				var hello [1]byte
				if _, err := io.ReadFull(c, hello[:]); err != nil {
					bootErr <- err
					return
				}
				c.SetReadDeadline(time.Time{})
				if e.WrapConn != nil {
					c = e.WrapConn(i, int(hello[0]), c)
				}
				conns[i][hello[0]] = c
			}
		}(i, expect)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			c, err := net.DialTimeout("tcp", listeners[j].Addr().String(), e.timeout())
			if err != nil {
				return nil, nil, fmt.Errorf("remote: dial: %w", err)
			}
			// The hello byte is armed like the accept side's read of it: a
			// peer that accepts but never drains must not wedge bootstrap.
			c.SetWriteDeadline(time.Now().Add(e.timeout()))
			if _, err := c.Write([]byte{byte(i)}); err != nil {
				return nil, nil, err
			}
			c.SetWriteDeadline(time.Time{})
			if e.WrapConn != nil {
				c = e.WrapConn(i, j, c)
			}
			conns[i][j] = c
		}
	}
	bootstrap.Wait()
	select {
	case err := <-bootErr:
		return nil, nil, fmt.Errorf("remote: bootstrap: %w", err)
	default:
	}

	nodes := make([]*node, p)
	errs := make(chan error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		nodes[i] = newNode(i, g, part, e, conns[i], resume)
	}
	for _, n := range nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			if err := n.run(); err != nil {
				errs <- fmt.Errorf("remote: node %d: %w", n.id, err)
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	// When the mesh unwinds, secondary nodes report the cascade (their
	// peers' sockets closing); prefer the error that names a failed node.
	var firstErr error
	for err := range errs {
		if firstErr == nil {
			firstErr = err
		}
		var nf *NodeFailedError
		if errors.As(err, &nf) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if e.CheckpointDir != "" {
		clearCheckpoints(e.CheckpointDir)
	}

	result := ra.NewResult(part, nodes[0].waves)
	var rep Report
	for _, n := range nodes {
		result.Collect(n.w)
		rep.Frames += n.framesSent.Load()
		rep.Bytes += n.bytesSent.Load()
		rep.DataFrames += n.dataFrames
	}
	return result, &rep, nil
}

// event is a decoded frame plus its sender, serialized onto the node's
// event channel by the per-connection reader goroutines.
type event struct {
	from    int
	kind    byte
	wave    int
	phase   byte
	work    uint64
	updates []ra.Update
	err     error
}

// pending holds traffic that arrived before its wave started on this node.
type pending struct {
	batches [][]ra.Update
	eows    int
}

type node struct {
	id      int
	w       *ra.Worker
	peers   int
	conns   []net.Conn
	writers []*writer
	events  chan event
	buf     *combine.Buffer[ra.Update]

	timeout   time.Duration
	hb        time.Duration
	ckptDir   string
	ckptEvery int
	group     uint64 // partition group size, recorded in checkpoints
	resumed   bool
	startWave int // the wave whose completion the initial done reports

	waveNow  int
	curPhase byte // the phase this node is currently in
	stash    map[int]*pending
	eows     int  // end-of-wave sentinels seen for waveNow
	expanded bool // this node finished its own expansion for waveNow
	work     uint64
	reported bool
	finished bool
	quit     chan struct{}

	// Coordinator state (node 0 only).
	phaseNow  byte
	doneCount int
	doneWork  uint64
	waves     int

	// framesSent/bytesSent are atomic: the heartbeat goroutine sends
	// concurrently with the run loop.
	framesSent, bytesSent atomic.Uint64
	dataFrames            uint64
}

func newNode(id int, g game.Game, part *ra.Partition, e Engine, conns []net.Conn, resume *resumeState) *node {
	n := &node{
		id:        id,
		peers:     len(conns) - 1,
		conns:     conns,
		events:    make(chan event, 4*len(conns)),
		stash:     map[int]*pending{},
		quit:      make(chan struct{}),
		timeout:   e.timeout(),
		hb:        e.heartbeat(),
		ckptDir:   e.CheckpointDir,
		ckptEvery: e.ckptEvery(),
		group:     part.Group(),
	}
	if resume != nil {
		// The restored worker's state is "all waves before resume.wave
		// complete"; the initial done therefore reports resume.wave-1 and
		// the coordinator replays resume.wave.
		n.w = resume.workers[id]
		n.resumed = true
		n.startWave = resume.wave - 1
		n.waveNow = n.startWave
		n.waves = resume.waves
	} else {
		n.w = ra.NewWorker(g, part, id)
	}
	n.writers = make([]*writer, len(conns))
	for j, c := range conns {
		if c != nil {
			n.writers[j] = newWriter(c, n.timeout, n.peerFailed(j))
		}
	}
	n.buf = combine.MustNew(len(conns), e.batch(), func(dst int, b []ra.Update) {
		if dst == id {
			for _, u := range b {
				n.w.Apply(u)
			}
			return
		}
		n.sendFrame(dst, encodeBatch(n.waveNow, b))
		n.dataFrames++
	})
	return n
}

// peerFailed returns a callback delivering a peer-failure cause to the
// run loop (which wraps it with its phase and wave); used by the reader
// and writer goroutines of peer j's connection.
func (n *node) peerFailed(j int) func(error) {
	return func(cause error) {
		select {
		case n.events <- event{from: j, err: cause}:
		case <-n.quit:
		}
	}
}

// run is the node's main loop: read events until the finish phase.
func (n *node) run() error {
	for j, c := range n.conns {
		if c == nil {
			continue
		}
		go n.reader(j, c)
	}
	if n.peers > 0 && n.hb > 0 {
		go n.heartbeats(n.hb)
	}
	defer func() {
		close(n.quit)
		for _, w := range n.writers {
			if w != nil {
				w.close()
			}
		}
	}()

	// Initialisation, then act as if a wave-startWave phase completed
	// (wave 0 on a fresh start, the checkpointed wave on resume).
	if !n.resumed {
		if _, err := n.w.Init(); err != nil {
			return err
		}
	}
	n.phaseNow = 0
	n.sendDone(n.startWave, 0)

	for !n.finished {
		ev := <-n.events
		if ev.err != nil {
			return &NodeFailedError{Node: ev.from, Phase: phaseName(n.curPhase), Wave: n.waveNow, Err: ev.err}
		}
		switch ev.kind {
		case frameBatch:
			if ev.wave > n.waveNow {
				n.pendingFor(ev.wave).batches = append(n.pendingFor(ev.wave).batches, ev.updates)
				continue
			}
			n.applyBatch(ev.updates)
		case frameEOW:
			if ev.wave > n.waveNow {
				n.pendingFor(ev.wave).eows++
				continue
			}
			n.eows++
			n.maybeReport()
		case frameDone:
			n.coordinatorDone(ev.wave, ev.work)
		case frameGo:
			if err := n.phase(ev.wave, ev.phase); err != nil {
				return err
			}
		}
	}
	return nil
}

func (n *node) pendingFor(wave int) *pending {
	pd := n.stash[wave]
	if pd == nil {
		pd = &pending{}
		n.stash[wave] = pd
	}
	return pd
}

func (n *node) applyBatch(updates []ra.Update) {
	for _, u := range updates {
		n.w.Apply(u)
	}
}

// phase starts a new phase on this node; phaseFinish sets n.finished.
func (n *node) phase(wave int, ph byte) error {
	n.waveNow = wave
	n.curPhase = ph
	n.eows = 0
	n.expanded = false
	n.reported = false
	n.work = 0
	switch ph {
	case phaseExpand:
		// Entry of an expand wave is the one checkpoint-safe moment: all
		// earlier waves are fully applied, this wave has not started, and
		// its traffic (even the already-stashed part) will be regenerated
		// by the re-run.
		if n.ckptDir != "" && wave%n.ckptEvery == 0 {
			if err := n.writeCheckpoint(wave); err != nil {
				return err
			}
		}
		n.w.BeginWave()
		if pd := n.stash[wave]; pd != nil {
			for _, b := range pd.batches {
				n.applyBatch(b)
			}
			n.eows += pd.eows
			delete(n.stash, wave)
		}
		expanded := uint64(0)
		for {
			k := n.w.Expand(256, func(owner int, u ra.Update) { n.buf.Add(owner, u) })
			if k == 0 {
				break
			}
			expanded += uint64(k)
		}
		n.buf.FlushAll()
		// Sentinels: all wave-w batches to each peer precede this marker
		// on the shared per-pair connection.
		for j := range n.conns {
			if j != n.id && n.conns[j] != nil {
				n.sendFrame(j, encodeCtl(frameEOW, wave, 0, 0))
			}
		}
		n.expanded = true
		n.work = expanded
		n.maybeReport()
	case phaseLoops:
		resolved := n.w.ResolveLoops()
		n.expanded = true
		n.work = resolved
		n.eows = n.peers // no batches in this phase
		n.maybeReport()
	case phaseFinish:
		// Announce the orderly shutdown before sockets start closing, so
		// peers can tell this EOF from a crash.
		for j := range n.conns {
			if j != n.id && n.conns[j] != nil {
				n.sendFrame(j, encodeCtl(frameBye, wave, 0, 0))
			}
		}
		n.finished = true
	default:
		return fmt.Errorf("unknown phase %d", ph)
	}
	return nil
}

// maybeReport sends the done-report once this node has both finished its
// own phase work and seen every peer's end-of-wave sentinel (so all
// batches addressed to it have been applied).
func (n *node) maybeReport() {
	if n.reported || !n.expanded || n.eows < n.peers {
		return
	}
	n.reported = true
	n.sendDone(n.waveNow, n.work)
}

func (n *node) sendDone(wave int, work uint64) {
	if n.id == 0 {
		n.coordinatorDone(wave, work)
		return
	}
	n.sendFrame(0, encodeCtl(frameDone, wave, 0, work))
}

// coordinatorDone runs on node 0.
func (n *node) coordinatorDone(wave int, work uint64) {
	if wave != n.waveNow && !(n.phaseNow == 0 && wave == n.startWave) {
		// Done reports always follow the go that started their wave.
		panic(fmt.Sprintf("remote: coordinator got done for wave %d in wave %d", wave, n.waveNow))
	}
	n.doneCount++
	n.doneWork += work
	if n.doneCount < n.peers+1 {
		return
	}
	workSum := n.doneWork
	n.doneCount, n.doneWork = 0, 0
	var next byte
	switch {
	case n.phaseNow == 0:
		next = phaseExpand
	case n.phaseNow == phaseExpand && workSum > 0:
		n.waves++
		next = phaseExpand
	case n.phaseNow == phaseExpand:
		next = phaseLoops
	case n.phaseNow == phaseLoops:
		next = phaseFinish
	default:
		panic("remote: coordinator in unexpected phase")
	}
	n.phaseNow = next
	nextWave := wave + 1
	for j := range n.conns {
		if j != n.id && n.conns[j] != nil {
			n.sendFrame(j, encodeCtl(frameGo, nextWave, next, 0))
		}
	}
	// The coordinator participates too: run its own phase directly (an
	// event-channel self-send could deadlock when the channel is full).
	if err := n.phase(nextWave, next); err != nil {
		panic(err) // unknown phase from our own encoder: unreachable
	}
}

func (n *node) sendFrame(dst int, frame []byte) {
	n.framesSent.Add(1)
	n.bytesSent.Add(uint64(len(frame)))
	n.writers[dst].enqueue(frame)
}

// reader decodes frames from one peer connection onto the event channel.
// Every read is armed with the failure-detection deadline: heartbeats
// keep a healthy idle connection alive, so tripping it means the peer is
// wedged. An EOF counts as orderly only after the peer's bye frame;
// without one, the peer crashed.
func (n *node) reader(from int, c net.Conn) {
	br := bufio.NewReader(c)
	sawBye := false
	for {
		c.SetReadDeadline(time.Now().Add(n.timeout))
		ev, err := readFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) && sawBye {
				return
			}
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("connection closed without bye: %w", io.ErrUnexpectedEOF)
			}
			n.peerFailed(from)(err)
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
		case n.events <- ev:
		case <-n.quit:
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

func encodeCtl(kind byte, wave int, phase byte, work uint64) []byte {
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
		buf[9] = phase
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
		count := binary.LittleEndian.Uint32(body[5:])
		if uint32(len(body)) != 9+count*10 {
			return event{}, fmt.Errorf("remote: batch frame size mismatch")
		}
		ev.updates = make([]ra.Update, count)
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
		ev.phase = body[5]
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
