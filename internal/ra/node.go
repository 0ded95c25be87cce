package ra

import (
	"fmt"

	"retrograde/internal/combine"
	"retrograde/internal/sim"
)

// The paper's algorithm is one wave-synchronous node protocol: expand the
// wave's frontier, combine the updates per owner, report done, and let a
// coordinator (node 0) start the next phase once every node has. Node is
// that state machine, written once. A Transport carries it: Distributed
// drives it over a simulated cluster node in virtual time, and
// remote.Engine over a TCP mesh endpoint. The node makes every protocol
// decision; the transport delivers messages, charges virtual time, and
// says how many end-of-wave sentinels complete a wave.
//
// In async mode the same node drops the per-wave barrier: after Start it
// stays in one expand phase, expanding a chunk per Step as its driver
// schedules it and applying batches as they arrive, while a Safra token
// ring detects global quiescence. Node 0 then decides the expand phase
// done with no work, and loop resolution and finish run as in the
// synchronous protocol.

// Phase is one step of the wave protocol. Its values are also the phase
// byte of the TCP engine's go frame.
type Phase uint8

// Protocol phases, in the order the coordinator starts them.
const (
	PhaseInit   Phase = iota // forward move generation, before the first go
	PhaseExpand              // one wave: expand the frontier, deliver its updates
	PhaseLoops               // resolve the positions no wave finalized
	PhaseFinish              // the solve is complete
)

var phaseNames = [...]string{"init", "expand", "loops", "finish"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// MsgKind says what a Msg carries. Its values are also the TCP engine's
// frame types.
type MsgKind uint8

// Message kinds of the wave protocol.
const (
	// MsgBatch carries combined Updates for the receiver's shard, produced
	// in wave Wave.
	MsgBatch MsgKind = iota + 1
	// MsgSentinel follows the sender's last wave-Wave batch to the
	// receiver.
	MsgSentinel
	// MsgDone reports that the sender's done subtree has completed wave
	// Wave, with Work the positions it expanded or resolved.
	MsgDone
	// MsgGo starts Phase as wave Wave.
	MsgGo
	// MsgToken is an async run's Safra probe token: Work is the count of
	// batches sent minus received along the ring so far (two's
	// complement), Black its colour.
	MsgToken
)

// Msg is one message of the wave protocol.
type Msg struct {
	Kind    MsgKind
	Phase   Phase
	Black   bool
	Wave    int
	Work    uint64
	Updates []Update
}

// Transport carries one node's messages and charges its compute.
type Transport interface {
	// Send delivers m to node dst (never the sender itself), after
	// everything the sender sent to dst before it.
	Send(dst int, m Msg)
	// Broadcast delivers m to every other node.
	Broadcast(m Msg)
	// Busy charges d of virtual compute time; a real wire ignores it.
	Busy(d sim.Time)
	// Sentinels is how many end-of-wave sentinels complete a wave on this
	// node: one per peer where only each pair's traffic is ordered, none
	// where a done report can never overtake the batches sent before it.
	Sentinels() int
	// BeginExpand runs at the entry of every expand wave of a synchronous
	// node, before the node's state moves into it: the one moment that
	// state is exactly "every earlier wave applied". An error stops the
	// node.
	BeginExpand(wave int) error
}

// NodeConfig parameterises a Node.
type NodeConfig struct {
	// Protocol selects the done-report topology.
	Protocol Protocol
	// Combine is the combining-buffer capacity in updates per batch.
	Combine int
	// Chunk is how many queue positions one call of the worker's
	// expansion loop (and one Busy charge) covers; 1 stamps every batch
	// after the compute of the positions expanded before it. In async
	// mode it is one Step's quantum.
	Chunk int
	// Async drops the per-wave barrier: the node expands in Steps and
	// detects quiescence with Safra's token ring (see Step).
	Async bool
	// Costs is the virtual compute charged through Transport.Busy.
	Costs ComputeCosts
	// Resumed starts from a worker restored at the entry of wave Wave+1:
	// Start skips Init and reports wave Wave done. Waves restores the
	// coordinator's productive-wave counter.
	Resumed     bool
	Wave, Waves int
}

// Node runs the wave protocol for one worker. It is not safe for
// concurrent use: a transport calls Start once, then Deliver for every
// message (and, in async mode, Step), from one goroutine (or one
// simulation kernel).
type Node struct {
	w         *Worker
	buf       *combine.Buffer[Update]
	t         Transport
	id, p     int
	cfg       NodeConfig
	sentinels int

	phase    Phase
	wave     int
	early    []Msg // batches of wave+1 that outran its go
	earlyEOW int   // sentinels of wave+1 that outran its go
	heard    int   // sentinels heard for wave
	ready    bool  // own work for wave is done and not yet reported
	work     uint64

	parent    int // where aggregated done reports go; -1 at the root
	expect    int // done contributions per phase: own plus one per child
	doneCount int // done contributions folded in for wave
	doneWork  uint64
	waves     int // productive expand waves, or async probe rounds (meaningful on node 0)

	// Flushed updates, split by whether their target was this node's.
	localUpdates  uint64
	remoteUpdates uint64

	// Safra's termination detection, in async mode.
	balance  int64 // batches sent minus received
	black    bool  // received a batch since last passing the token
	hasToken bool
	token    Msg
}

// NewNode returns the protocol node for worker w over transport t.
func NewNode(w *Worker, t Transport, cfg NodeConfig) *Node {
	n := &Node{w: w, t: t, id: w.ID(), p: w.part.Workers(), cfg: cfg, sentinels: t.Sentinels(), wave: cfg.Wave, waves: cfg.Waves}
	// Done reports go straight to node 0, or up a binary tree rooted there.
	switch {
	case cfg.Protocol == TreeProtocol:
		n.parent, n.expect = (n.id-1)/2, 1+min(max(n.p-2*n.id-1, 0), 2)
	case n.id == 0:
		n.expect = n.p
	default:
		n.expect = 1
	}
	if n.id == 0 {
		n.parent = -1
	}
	n.buf = combine.MustNew(n.p, cfg.Combine, func(dst int, batch []Update) {
		if dst == n.id {
			n.localUpdates += uint64(len(batch))
			n.apply(batch)
			return
		}
		n.remoteUpdates += uint64(len(batch))
		n.balance++
		n.t.Send(dst, Msg{Kind: MsgBatch, Wave: n.wave, Updates: batch})
	})
	return n
}

// Worker returns the node's worker.
func (n *Node) Worker() *Worker { return n.w }

// Phase returns the phase the node is in.
func (n *Node) Phase() Phase { return n.phase }

// Wave returns the wave the node is in.
func (n *Node) Wave() int { return n.wave }

// Waves returns the coordinator's count of productive expand waves, or
// in async mode of Safra probe rounds.
func (n *Node) Waves() int { return n.waves }

// Finished reports whether the node has entered the finish phase.
func (n *Node) Finished() bool { return n.phase == PhaseFinish }

// Start initialises the worker (unless resumed) and reports the start
// wave done; an async node instead enters its one expand phase, node 0
// holding the token. Both transports call Start before any Deliver, so
// no async node needs an init barrier.
func (n *Node) Start() error {
	if !n.cfg.Resumed {
		n.t.Busy(n.cfg.Costs.PerInit * sim.Time(n.w.ShardSize()))
		if _, err := n.w.Init(); err != nil {
			return err
		}
	}
	if n.cfg.Async {
		n.phase, n.hasToken = PhaseExpand, n.id == 0
		return n.settle()
	}
	n.heard = n.sentinels // no batches before the first wave
	return n.ownDone(0)
}

// Runnable reports whether an async node has local work for a Step.
func (n *Node) Runnable() bool {
	return n.cfg.Async && n.phase == PhaseExpand && n.w.Pending() > 0
}

// Step expands one chunk of an async node's queue, then settles.
func (n *Node) Step() error {
	n.w.Refill()
	if k := n.w.expandUpdates(n.cfg.Chunk, n.buf.Add); k > 0 {
		n.t.Busy(n.cfg.Costs.PerExpand * sim.Time(k))
	}
	return n.settle()
}

// settle runs after an async node worked or received a batch. Once the
// node has no local work it flushes its partial batches (self-addressed
// ones can make new work) and, if still idle, takes part in termination
// detection.
func (n *Node) settle() error {
	if n.w.Pending() == 0 {
		n.buf.FlushAll()
	}
	if n.w.Pending() > 0 {
		return nil
	}
	return n.passToken()
}

// passToken is Safra's rules 2 and 3, run by an idle node that holds the
// token: node 0 ends the expand phase when a probe returns white with
// the ring's balance at zero (every batch sent was received) and starts
// a fresh probe otherwise; any other node forwards the token with its
// balance and colour added.
func (n *Node) passToken() error {
	if !n.hasToken {
		return nil
	}
	t := n.token
	if n.id == 0 {
		n.waves++
		if n.waves > 1 && !n.black && !t.Black && t.Work+uint64(n.balance) == 0 {
			return n.decide(0)
		}
		t = Msg{Kind: MsgToken}
	} else {
		t.Work += uint64(n.balance)
		t.Black = t.Black || n.black
	}
	// The ring runs by descending id, per Safra's presentation. Passing
	// the token whitens the node.
	n.black = false
	n.token = t
	if n.p == 1 {
		return n.passToken() // the token returns at once
	}
	n.hasToken = false
	n.t.Send((n.id+n.p-1)%n.p, t)
	return nil
}

// Deliver processes one message from a peer.
func (n *Node) Deliver(m Msg) error {
	switch m.Kind {
	case MsgBatch:
		if m.Wave > n.wave {
			// The batch outran this node's go (the coordinator's broadcast
			// reaches peers one by one); hold it so the wave stays level.
			n.early = append(n.early, m)
			return nil
		}
		n.apply(m.Updates)
		if n.cfg.Async {
			n.balance--
			n.black = true
			return n.settle()
		}
	case MsgSentinel:
		if m.Wave > n.wave {
			n.earlyEOW++
			return nil
		}
		n.heard++
		return n.maybeReport()
	case MsgDone:
		return n.foldDone(m.Wave, m.Work)
	case MsgGo:
		return n.enter(m.Wave, m.Phase)
	case MsgToken:
		n.hasToken, n.token = true, m
		return n.settle()
	default:
		return fmt.Errorf("ra: node %d got a message of unknown kind %d", n.id, m.Kind)
	}
	return nil
}

func (n *Node) apply(updates []Update) {
	n.t.Busy(n.cfg.Costs.PerUpdate * sim.Time(len(updates)))
	for _, u := range updates {
		n.w.Apply(u)
	}
}

// enter starts phase ph as wave on this node.
func (n *Node) enter(wave int, ph Phase) error {
	n.wave, n.phase = wave, ph
	n.heard, n.ready = 0, false
	switch ph {
	case PhaseExpand:
		if err := n.t.BeginExpand(wave); err != nil {
			return err
		}
		n.w.BeginWave()
		for _, m := range n.early {
			if m.Wave != wave {
				return fmt.Errorf("ra: node %d held a batch of wave %d into wave %d", n.id, m.Wave, wave)
			}
			n.apply(m.Updates)
		}
		n.early = n.early[:0]
		n.heard, n.earlyEOW = n.earlyEOW, 0
		expanded := uint64(0)
		for {
			k := n.w.expandUpdates(n.cfg.Chunk, n.buf.Add)
			if k == 0 {
				break
			}
			n.t.Busy(n.cfg.Costs.PerExpand * sim.Time(k))
			expanded += uint64(k)
		}
		n.buf.FlushAll()
		if n.sentinels > 0 {
			for j := 0; j < n.p; j++ {
				if j != n.id {
					n.t.Send(j, Msg{Kind: MsgSentinel, Wave: wave})
				}
			}
		}
		return n.ownDone(expanded)
	case PhaseLoops:
		resolved := n.w.ResolveLoops()
		n.t.Busy(n.cfg.Costs.PerLoop * sim.Time(resolved))
		n.heard = n.sentinels // no batches in this phase
		return n.ownDone(resolved)
	case PhaseFinish:
		return nil
	}
	return fmt.Errorf("ra: node %d told to start unknown phase %d", n.id, ph)
}

// ownDone records this node's own work for the current wave.
func (n *Node) ownDone(work uint64) error {
	n.ready, n.work = true, work
	return n.maybeReport()
}

// maybeReport folds the node's own done report in once its work is done
// and every sentinel is in, so all batches addressed to it are applied.
func (n *Node) maybeReport() error {
	if !n.ready || n.heard < n.sentinels {
		return nil
	}
	n.ready = false
	return n.foldDone(n.wave, n.work)
}

// foldDone folds one done contribution (own or a protocol child's) into
// the aggregator. Once all expected contributions are in, the sum moves
// up the done topology or, at the root, decides the next phase.
func (n *Node) foldDone(wave int, work uint64) error {
	if wave != n.wave {
		return fmt.Errorf("ra: node %d got done for wave %d during wave %d", n.id, wave, n.wave)
	}
	n.doneCount++
	n.doneWork += work
	if n.doneCount < n.expect {
		return nil
	}
	sum := n.doneWork
	n.doneCount, n.doneWork = 0, 0
	if n.parent >= 0 {
		n.t.Send(n.parent, Msg{Kind: MsgDone, Wave: wave, Work: sum})
		return nil
	}
	return n.decide(sum)
}

// decide runs on node 0 once the whole cluster has reported the current
// phase done, every batch of it applied: it starts the next phase on all
// nodes.
func (n *Node) decide(work uint64) error {
	var next Phase
	switch {
	case n.phase == PhaseInit:
		next = PhaseExpand
	case n.phase == PhaseExpand && work > 0:
		n.waves++
		next = PhaseExpand
	case n.phase == PhaseExpand:
		next = PhaseLoops
	case n.phase == PhaseLoops:
		next = PhaseFinish
	default:
		return fmt.Errorf("ra: coordinator decided during %v", n.phase)
	}
	if n.p > 1 {
		n.t.Broadcast(Msg{Kind: MsgGo, Wave: n.wave + 1, Phase: next})
	}
	return n.enter(n.wave+1, next) // a broadcast skips its sender
}
