package ra

import (
	"fmt"

	"retrograde/internal/cluster"
	"retrograde/internal/combine"
	"retrograde/internal/game"
	"retrograde/internal/network"
	"retrograde/internal/sim"
)

// AsyncDistributed is the asynchronous variant of the distributed engine:
// no waves, no barriers — every node expands its queue continuously,
// applies updates as they arrive, and global quiescence is detected with
// Safra's token-ring termination algorithm. Loop resolution follows as a
// coordinated epilogue.
//
// Asynchrony changes when updates are applied, not what they contain, so
// for order-insensitive value semantics (awari's capture counts — any
// game whose Better/Finalizes depend only on the value) the resulting
// database is bit-identical to the synchronous engines'. WDL games
// encode distance-to-end inside the value, and distances are only exact
// under level-synchronous propagation: outcomes still agree, depths may
// not. The test suite asserts exactly that split.
type AsyncDistributed struct {
	// Workers is the number of cluster nodes; 0 means 8.
	Workers int
	// Combine is the combining-buffer capacity; 0 means 100.
	Combine int
	// Group is the block-cyclic partition group size; 0 means 1.
	Group uint64
	// Chunk is how many positions a node expands per scheduling quantum;
	// 0 means 64. Smaller chunks interleave communication sooner.
	Chunk int
	// Network selects the interconnect model.
	Network NetworkKind
	// NetConfig, Cost, Compute override the models as in Distributed.
	NetConfig network.EthernetConfig
	Cost      *cluster.CostModel
	Compute   *ComputeCosts
}

func (d AsyncDistributed) workers() int {
	if d.Workers > 0 {
		return d.Workers
	}
	return 8
}

func (d AsyncDistributed) combineSize() int {
	if d.Combine > 0 {
		return d.Combine
	}
	return 100
}

func (d AsyncDistributed) group() uint64 {
	if d.Group > 0 {
		return d.Group
	}
	return 1
}

func (d AsyncDistributed) chunk() int {
	if d.Chunk > 0 {
		return d.Chunk
	}
	return 64
}

// Name implements Engine.
func (d AsyncDistributed) Name() string {
	return fmt.Sprintf("async(p=%d,combine=%d)", d.workers(), d.combineSize())
}

// tokenMsg is Safra's probe token. Updates, the loop-phase go and done
// reports travel as the wave protocol's Msg with wave 0.
type tokenMsg struct {
	count int64
	black bool
}

const tokenMsgBytes = 16

// Solve implements Engine.
func (d AsyncDistributed) Solve(g game.Game) (*Result, error) {
	r, _, err := d.SolveDetailed(g)
	return r, err
}

// SolveDetailed runs the asynchronous analysis and returns the simulation
// report. The report's ProtocolMessages counts token passes and the
// loop-phase coordination.
func (d AsyncDistributed) SolveDetailed(g game.Game) (*Result, *SimReport, error) {
	sr, err := newSimRun(g, d.workers(), d.group(), d.combineSize(), d.Network, d.NetConfig, d.Cost, d.Compute)
	if err != nil {
		return nil, nil, err
	}
	run := &asyncRun{simRun: sr, chunk: d.chunk()}
	for i := range sr.sims {
		run.nodes = append(run.nodes, newAsyncNode(run, i))
	}
	for _, n := range run.nodes {
		n.start()
	}
	// An async result's Waves are the Safra probe rounds.
	return sr.solve("async", func() (int, bool) { return run.probes, run.finished })
}

type asyncRun struct {
	*simRun
	chunk int
	nodes []*asyncNode

	probes     int // Safra probe rounds completed
	dones      int
	inEpilogue bool
	finished   bool
}

// asyncNode is one processor of the asynchronous engine, implementing
// Safra's algorithm: a message counter (sent-received), a color (black
// after receiving a message), and a circulating token.
type asyncNode struct {
	simNode
	run *asyncRun

	scheduled bool // a work quantum is pending
	counter   int64
	black     bool
	hasToken  bool
	token     tokenMsg
}

func newAsyncNode(run *asyncRun, id int) *asyncNode {
	link := simLink{run.clu.Node(id), run.simRun}
	n := &asyncNode{simNode: simNode{link, &shard{w: NewWorker(run.g, run.part, id)}}, run: run}
	run.sims[id] = &n.simNode
	n.buf = combine.MustNew(len(run.sims), run.combine, func(dst int, batch []Update) {
		if dst == id {
			n.localUpdates += uint64(len(batch))
			for _, u := range batch {
				n.w.Apply(u)
			}
			return
		}
		n.remoteUpdates += uint64(len(batch))
		n.counter++
		n.Send(dst, Msg{Kind: MsgBatch, Updates: batch})
	})
	n.node.SetHandler(n.handle)
	return n
}

func (n *asyncNode) start() {
	n.node.Start(func() {
		n.node.Busy(n.run.comp.PerInit * sim.Time(n.w.ShardSize()))
		mustInit(n.w)
		if n.node.ID() == 0 {
			// Node 0 holds the initial token; the first probe starts
			// once it goes passive.
			n.hasToken = true
			n.token = tokenMsg{}
		}
		n.schedule()
	})
}

// schedule queues a work quantum when one is not already pending.
func (n *asyncNode) schedule() {
	if n.scheduled {
		return
	}
	n.scheduled = true
	at := n.node.BusyUntil()
	if now := n.run.clu.Kernel.Now(); at < now {
		at = now
	}
	n.run.clu.Kernel.At(at, n.quantum)
}

// quantum expands up to chunk positions, then settles.
func (n *asyncNode) quantum() {
	n.scheduled = false
	if n.run.inEpilogue {
		return
	}
	n.w.Refill()
	k := n.w.Expand(n.run.chunk, func(owner int, u Update) { n.buf.Add(owner, u) })
	if k > 0 {
		n.node.Busy(n.run.comp.PerExpand * sim.Time(k))
	}
	n.settle()
}

// settle decides what a node does after working or receiving updates:
// keep expanding if work remains, otherwise flush partial batches (which
// can itself create local work via self-addressed updates) and, once
// truly passive, take part in termination detection.
func (n *asyncNode) settle() {
	if n.w.Pending() > 0 {
		n.schedule()
		return
	}
	n.buf.FlushAll()
	if n.w.Pending() > 0 {
		n.schedule()
		return
	}
	n.maybePassToken()
}

// handle processes one incoming message.
func (n *asyncNode) handle(from int, payload any) {
	switch m := payload.(type) {
	case tokenMsg:
		n.hasToken = true
		n.token = m
		n.maybePassToken()
	case Msg:
		switch m.Kind {
		case MsgBatch:
			n.counter--
			n.black = true // Safra rule 1
			n.node.Busy(n.run.comp.PerUpdate * sim.Time(len(m.Updates)))
			for _, u := range m.Updates {
				n.w.Apply(u)
			}
			n.settle()
		case MsgGo:
			n.epilogue(m.Phase)
		case MsgDone:
			n.coordinatorEpilogueDone()
		}
	default:
		panic(fmt.Sprintf("ra: async node %d received unknown payload %T", n.node.ID(), payload))
	}
}

// passive reports whether the node has no local work and no buffered
// updates.
func (n *asyncNode) passive() bool {
	return n.w.Pending() == 0 && !n.scheduled
}

// maybePassToken implements Safra rules 2 and 3: forward the token when
// passive; at node 0, decide termination or start a new probe.
func (n *asyncNode) maybePassToken() {
	if !n.hasToken || !n.passive() || n.run.inEpilogue {
		return
	}
	run := n.run
	if n.node.ID() == 0 {
		run.probes++
		if run.probes > 1 && !n.black && !n.token.black && n.token.count+n.counter == 0 {
			// Global quiescence: the returned token is white, node 0
			// stayed white, and the circulated counters plus node 0's
			// own balance to zero — every sent message was received.
			n.startEpilogue()
			return
		}
		// Start a new probe: a fresh white token with count 0 (node 0's
		// own counter enters only the termination test above).
		n.sendToken(tokenMsg{})
		return
	}
	// Safra rule 2: forward with the local count added; blacken the
	// token if this node is black.
	t := n.token
	t.count += n.counter
	if n.black {
		t.black = true
	}
	n.sendToken(t)
}

// sendToken passes the token to the next node on the ring (descending
// ids, per Safra's presentation) and whitens this node.
func (n *asyncNode) sendToken(t tokenMsg) {
	next := n.node.ID() - 1
	if next < 0 {
		next = len(n.run.nodes) - 1
	}
	n.hasToken = false
	n.black = false
	if next == n.node.ID() {
		// Single node: the token returns immediately.
		n.hasToken = true
		n.token = t
		if n.passive() {
			n.maybePassToken()
		}
		return
	}
	n.run.protocolMsgs++
	n.node.Send(next, t, tokenMsgBytes)
}

// startEpilogue runs loop resolution across the cluster once propagation
// has terminated.
func (n *asyncNode) startEpilogue() {
	run := n.run
	run.inEpilogue = true
	run.dones = 0
	if len(run.nodes) > 1 {
		n.Broadcast(Msg{Kind: MsgGo, Phase: PhaseLoops})
	}
	n.epilogue(PhaseLoops)
}

func (n *asyncNode) epilogue(ph Phase) {
	if ph != PhaseLoops {
		return // finish: nothing to do
	}
	resolved := n.w.ResolveLoops()
	n.node.Busy(n.run.comp.PerLoop * sim.Time(resolved))
	if n.node.ID() == 0 {
		n.coordinatorEpilogueDone()
		return
	}
	n.Send(0, Msg{Kind: MsgDone})
}

func (n *asyncNode) coordinatorEpilogueDone() {
	run := n.run
	run.dones++
	if run.dones < len(run.nodes) {
		return
	}
	run.finished = true
	if len(run.nodes) > 1 {
		n.Broadcast(Msg{Kind: MsgGo, Phase: PhaseFinish})
	}
}
