package ra

import (
	"fmt"

	"retrograde/internal/cluster"
	"retrograde/internal/combine"
	"retrograde/internal/game"
	"retrograde/internal/network"
	"retrograde/internal/sim"
)

// ComputeCosts is the virtual-time cost of retrograde-analysis work on a
// simulated node, calibrated to a mid-90s workstation (the paper's
// platform): a few milliseconds per position for move/un-move generation
// and a fraction of a millisecond per applied update.
type ComputeCosts struct {
	// PerInit is charged per position during initialisation (move
	// generation, successor counting, database probes for captures).
	PerInit sim.Time
	// PerExpand is charged per finalized position during expansion
	// (un-move generation).
	PerExpand sim.Time
	// PerUpdate is charged per update applied to an owned position.
	PerUpdate sim.Time
	// PerLoop is charged per position during loop resolution.
	PerLoop sim.Time
}

// DefaultComputeCosts calibrates to the paper's era (see EXPERIMENTS.md
// for the calibration argument).
func DefaultComputeCosts() ComputeCosts {
	return ComputeCosts{
		PerInit:   2 * sim.Millisecond,
		PerExpand: 1500 * sim.Microsecond,
		PerUpdate: 150 * sim.Microsecond,
		PerLoop:   50 * sim.Microsecond,
	}
}

// Protocol selects how per-wave done-reports reach the decision point.
type Protocol uint8

// Termination/barrier protocols.
const (
	// CentralProtocol sends every node's done-report straight to node 0
	// (the paper-era default; the coordinator pays O(p) per wave).
	CentralProtocol Protocol = iota
	// TreeProtocol combines done-reports up a binary tree rooted at node
	// 0, so no node handles more than three protocol messages per wave.
	TreeProtocol
)

func (p Protocol) String() string {
	switch p {
	case CentralProtocol:
		return "central"
	case TreeProtocol:
		return "tree"
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// NetworkKind selects the interconnect model of the simulated cluster.
type NetworkKind uint8

// Interconnect models.
const (
	// EthernetNet is the paper's shared 10 Mbit/s bus.
	EthernetNet NetworkKind = iota
	// CrossbarNet is a switched network (per-source links), for ablation.
	CrossbarNet
)

func (k NetworkKind) String() string {
	switch k {
	case EthernetNet:
		return "ethernet"
	case CrossbarNet:
		return "crossbar"
	}
	return fmt.Sprintf("NetworkKind(%d)", uint8(k))
}

// SimReport describes a distributed run: its virtual duration and the
// traffic it generated. Attached to Result.Sim by the Distributed engine.
type SimReport struct {
	// Duration is the virtual time from start to global completion.
	Duration sim.Time
	// Net is the interconnect's traffic summary.
	Net network.Stats
	// Nodes is each node's activity (CPU busy, messages, bytes).
	Nodes []cluster.NodeStats
	// Combining aggregates combining-buffer statistics across nodes;
	// Combining.Factor() is the paper's combining factor.
	Combining combine.Stats
	// DataMessages counts update-carrying messages on the wire (batches
	// whose target shard was local never leave the node and are not
	// counted); ProtocolMessages counts barrier/termination messages.
	DataMessages     uint64
	ProtocolMessages uint64
	// LocalUpdates and RemoteUpdates split generated updates by whether
	// their target was owned by the generating node (no wire traffic) or
	// by another node. Their ratio measures how partition choice maps
	// predecessor locality onto the machine.
	LocalUpdates  uint64
	RemoteUpdates uint64
	// Events is the number of simulation events executed.
	Events uint64
}

// Distributed is the paper's engine: retrograde analysis on a distributed
// system with message combining, run on the simulated cluster in virtual
// time. The zero value solves with 8 nodes on the default 1995
// Ethernet/cost calibration with a 100-update combining buffer.
type Distributed struct {
	// Workers is the number of cluster nodes; 0 means 8.
	Workers int
	// Combine is the combining-buffer capacity in updates per message;
	// 0 means 100, 1 disables combining (the paper's naive baseline).
	Combine int
	// Group is the block-cyclic partition group size; 0 means 1.
	Group uint64
	// Network selects the interconnect model.
	Network NetworkKind
	// Protocol selects the done-report topology (central or tree).
	Protocol Protocol
	// NetConfig overrides the interconnect parameters; zero value means
	// network.DefaultEthernet().
	NetConfig network.EthernetConfig
	// Cost overrides the per-message host costs; zero value means
	// cluster.DefaultCost adjusted to 1995 RPC software overheads.
	Cost *cluster.CostModel
	// Compute overrides the per-work-item virtual costs; zero value
	// means DefaultComputeCosts.
	Compute *ComputeCosts
}

// DefaultMessageCost models mid-90s RPC software overhead: about 2.5 ms
// of host CPU per message on each side plus copy costs.
func DefaultMessageCost() cluster.CostModel {
	return cluster.CostModel{
		SendOverhead: 2500 * sim.Microsecond,
		RecvOverhead: 2500 * sim.Microsecond,
		PerByteSend:  50,
		PerByteRecv:  50,
	}
}

func (d Distributed) workers() int {
	if d.Workers > 0 {
		return d.Workers
	}
	return 8
}

func (d Distributed) combineSize() int {
	if d.Combine > 0 {
		return d.Combine
	}
	return 100
}

func (d Distributed) group() uint64 {
	if d.Group > 0 {
		return d.Group
	}
	return 1
}

// Name implements Engine.
func (d Distributed) Name() string {
	return fmt.Sprintf("distributed(p=%d,combine=%d,net=%v)", d.workers(), d.combineSize(), d.Network)
}

// Message payloads of the wave protocol. The wire sizes are what a real
// implementation would marshal.
type (
	// batchMsg carries combined updates to the owner of their targets,
	// stamped with the wave that produced them.
	batchMsg struct {
		wave    int
		updates []Update
	}
	// doneMsg reports phase completion to the coordinator: how much work
	// the node did (positions expanded, or loop positions resolved).
	doneMsg struct {
		wave int
		work uint64
	}
	// goMsg starts the next phase on all nodes.
	goMsg struct {
		wave  int
		phase phase
	}
)

type phase uint8

const (
	phaseInit phase = iota
	phaseExpand
	phaseLoops
	phaseFinish
)

const (
	doneMsgBytes = 16
	goMsgBytes   = 8
)

// Solve implements Engine. See SolveDetailed for the simulation report.
func (d Distributed) Solve(g game.Game) (*Result, error) {
	r, _, err := d.SolveDetailed(g)
	return r, err
}

// SolveDetailed runs the distributed analysis and also returns the
// simulation report (virtual time, traffic, combining factor). The same
// report is attached to the Result's Sim field.
func (d Distributed) SolveDetailed(g game.Game) (*Result, *SimReport, error) {
	sr, err := newSimRun(g, d.workers(), d.group(), d.combineSize(), d.Network, d.NetConfig, d.Cost, d.Compute)
	if err != nil {
		return nil, nil, err
	}
	run := &distRun{simRun: sr, protocol: d.Protocol}
	for i := range sr.sims {
		run.nodes = append(run.nodes, newDistNode(run, i))
	}
	for _, n := range run.nodes {
		n.start()
	}
	return sr.solve("distributed", &run.waves)
}

// simRun is what a solve on the simulated cluster consists of whichever
// engine drives it: the game and its partition, the machine (event
// kernel, interconnect and nodes behind clu), the virtual cost of
// compute, and per node the worker with its combining buffer. Distributed
// and AsyncDistributed embed it and add their protocol state.
type simRun struct {
	g       game.Game
	part    *Partition
	clu     *cluster.Cluster
	comp    ComputeCosts
	combine int
	sims    []*simNode // one per node, filled in by the engine's node constructor

	protocolMsgs uint64
	finished     bool
}

// simNode is the part of a simulated processor both engines share: the
// cluster node, its worker and combining buffer, and the split of
// generated updates by whether their target was local.
type simNode struct {
	node *cluster.Node
	w    *Worker
	buf  *combine.Buffer[Update]

	localUpdates  uint64
	remoteUpdates uint64
}

// newSimRun partitions g and builds the cluster; zero-valued overrides
// pick the 1995 calibration (DefaultEthernet, DefaultMessageCost,
// DefaultComputeCosts).
func newSimRun(g game.Game, workers int, group uint64, combineSize int, kind NetworkKind, netCfg network.EthernetConfig, cost *cluster.CostModel, comp *ComputeCosts) (*simRun, error) {
	part, err := NewPartition(g.Size(), workers, group)
	if err != nil {
		return nil, err
	}
	kernel := sim.New()
	if netCfg.BitsPerSec == 0 {
		netCfg = network.DefaultEthernet()
	}
	var net network.Network
	switch kind {
	case CrossbarNet:
		net, err = network.NewCrossbar(kernel, netCfg)
	default:
		net, err = network.NewEthernet(kernel, netCfg)
	}
	if err != nil {
		return nil, err
	}
	msgCost := DefaultMessageCost()
	if cost != nil {
		msgCost = *cost
	}
	clu, err := cluster.New(kernel, net, msgCost, workers)
	if err != nil {
		return nil, err
	}
	r := &simRun{g: g, part: part, clu: clu, comp: DefaultComputeCosts(), combine: combineSize, sims: make([]*simNode, workers)}
	if comp != nil {
		r.comp = *comp
	}
	return r, nil
}

// newNode builds the shared part of node id; the engine's node embeds it
// and records its address in sims.
func (r *simRun) newNode(id int) simNode {
	return simNode{node: r.clu.Node(id), w: NewWorker(r.g, r.part, id)}
}

// solve drains the simulation the engine has set in motion and assembles
// the result; *waves is read once the run has finished.
func (r *simRun) solve(engine string, waves *int) (*Result, *SimReport, error) {
	duration := r.clu.Run()
	if !r.finished {
		return nil, nil, fmt.Errorf("ra: %s run over %q stalled before completion", engine, r.g.Name())
	}
	result := NewResult(r.part, *waves)
	report := &SimReport{
		Net:              r.clu.Net.Stats(),
		Nodes:            make([]cluster.NodeStats, len(r.sims)),
		DataMessages:     r.clu.Net.Stats().Messages - r.protocolMsgs,
		ProtocolMessages: r.protocolMsgs,
		Events:           r.clu.Kernel.Events(),
	}
	for i, n := range r.sims {
		// The run ends when the last CPU drains, which can extend past the
		// last network event (e.g. the final loop-resolution compute).
		duration = max(duration, n.node.BusyUntil())
		result.Collect(n.w)
		cs := n.buf.Stats()
		report.Combining.Items += cs.Items
		report.Combining.Flushes += cs.Flushes
		report.Combining.FullFlushes += cs.FullFlushes
		report.Combining.ForcedFlushes += cs.ForcedFlushes
		report.Combining.MaxBatch = max(report.Combining.MaxBatch, cs.MaxBatch)
		report.Nodes[i] = n.node.Stats()
		report.LocalUpdates += n.localUpdates
		report.RemoteUpdates += n.remoteUpdates
	}
	report.Duration = duration
	result.Sim = report
	return result, report, nil
}

// distRun is the shared coordination state of one distributed solve. The
// simulation kernel is single-threaded, so no locking is needed.
type distRun struct {
	*simRun
	protocol Protocol
	nodes    []*distNode

	// Coordinator (node 0) state.
	wave     int
	phaseNow phase
	waves    int
}

// doneParent returns where node id forwards its aggregated done-report,
// or -1 for the root.
func (r *distRun) doneParent(id int) int {
	if id == 0 {
		return -1
	}
	if r.protocol == TreeProtocol {
		return (id - 1) / 2
	}
	return 0
}

// doneExpected returns how many done contributions node id aggregates
// per phase: its own plus one per protocol child.
func (r *distRun) doneExpected(id int) int {
	n := 1
	p := len(r.nodes)
	if r.protocol == TreeProtocol {
		if 2*id+1 < p {
			n++
		}
		if 2*id+2 < p {
			n++
		}
		return n
	}
	if id == 0 {
		return p
	}
	return 1
}

// distNode is one simulated processor running the worker state machine.
type distNode struct {
	simNode
	run     *distRun
	waveNow int        // wave the node is currently in
	stash   []batchMsg // batches that arrived ahead of their wave's goMsg

	// Per-phase done aggregation (self + protocol children).
	doneCount int
	doneWork  uint64
}

func newDistNode(run *distRun, id int) *distNode {
	n := &distNode{simNode: run.newNode(id), run: run}
	run.sims[id] = &n.simNode
	n.buf = combine.MustNew(len(run.sims), run.combine, func(dst int, batch []Update) {
		if dst == id {
			n.localUpdates += uint64(len(batch))
		} else {
			n.remoteUpdates += uint64(len(batch))
		}
		n.send(dst, batchMsg{wave: n.waveNow, updates: batch}, len(batch)*UpdateWireBytes)
	})
	n.node.SetHandler(n.deliver)
	return n
}

// send routes a message, short-circuiting self-sends: a node "sending" to
// itself just processes the payload locally without touching the network
// (matching the paper, where local updates never hit the wire).
func (n *distNode) send(dst int, payload any, bytes int) {
	if dst == n.node.ID() {
		n.deliver(n.node.ID(), payload)
		return
	}
	n.node.Send(dst, payload, bytes)
}

func (n *distNode) start() {
	n.node.Start(func() {
		n.node.Busy(n.run.comp.PerInit * sim.Time(n.w.ShardSize()))
		mustInit(n.w)
		n.selfDone(0, 0)
	})
}

// selfDone records this node's own phase completion into its aggregator.
func (n *distNode) selfDone(wave int, work uint64) {
	n.aggregateDone(doneMsg{wave: wave, work: work})
}

// aggregateDone folds one done contribution (own or from a protocol
// child) into the aggregator; when all expected contributions are in, the
// combined report moves up the done topology — or, at the root, decides
// the next phase.
func (n *distNode) aggregateDone(m doneMsg) {
	if m.wave != n.waveNow {
		panic(fmt.Sprintf("ra: node %d got done for wave %d during wave %d", n.node.ID(), m.wave, n.waveNow))
	}
	n.doneCount++
	n.doneWork += m.work
	if n.doneCount < n.run.doneExpected(n.node.ID()) {
		return
	}
	work := n.doneWork
	n.doneCount, n.doneWork = 0, 0
	parent := n.run.doneParent(n.node.ID())
	if parent < 0 {
		n.decide(work)
		return
	}
	n.run.protocolMsgs++
	n.send(parent, doneMsg{wave: m.wave, work: work}, doneMsgBytes)
}

func (n *distNode) deliver(from int, payload any) {
	switch m := payload.(type) {
	case batchMsg:
		if m.wave > n.waveNow {
			// The batch outran this node's goMsg (possible on switched
			// networks where the broadcast is per-receiver); hold it
			// until the wave starts so level-synchrony is preserved.
			n.stash = append(n.stash, m)
			return
		}
		n.applyBatch(m)
	case doneMsg:
		n.aggregateDone(m)
	case goMsg:
		n.phase(m)
	default:
		panic(fmt.Sprintf("ra: node %d received unknown payload %T", n.node.ID(), payload))
	}
}

func (n *distNode) applyBatch(m batchMsg) {
	n.node.Busy(n.run.comp.PerUpdate * sim.Time(len(m.updates)))
	for _, u := range m.updates {
		n.w.Apply(u)
	}
}

// decide runs on node 0 once every node's done-report has been folded
// in: all update batches of the finished phase have been applied (FIFO
// delivery), so the root can choose the next phase.
func (n *distNode) decide(workSum uint64) {
	run := n.run
	var next goMsg
	switch run.phaseNow {
	case phaseInit:
		next.phase = phaseExpand
	case phaseExpand:
		if workSum == 0 {
			next.phase = phaseLoops
		} else {
			run.waves++
			next.phase = phaseExpand
		}
	case phaseLoops:
		run.finished = true
		next.phase = phaseFinish
	default:
		panic("ra: coordinator in unexpected phase")
	}
	run.wave++
	run.phaseNow = next.phase
	next.wave = run.wave
	if len(run.nodes) > 1 {
		run.protocolMsgs++
		n.send(network.Broadcast, next, goMsgBytes)
	}
	n.phase(next) // broadcasts skip the sender; deliver locally
}

// phase runs one protocol phase on this node.
func (n *distNode) phase(m goMsg) {
	run := n.run
	n.waveNow = m.wave
	switch m.phase {
	case phaseExpand:
		n.w.BeginWave()
		// Apply any batches of this wave that outran the goMsg.
		if len(n.stash) > 0 {
			for _, b := range n.stash {
				if b.wave != m.wave {
					panic(fmt.Sprintf("ra: node %d stashed batch for wave %d, now in wave %d", n.node.ID(), b.wave, m.wave))
				}
				n.applyBatch(b)
			}
			n.stash = n.stash[:0]
		}
		expanded := uint64(0)
		for {
			k := n.w.Expand(1, func(owner int, u Update) { n.buf.Add(owner, u) })
			if k == 0 {
				break
			}
			n.node.Busy(run.comp.PerExpand)
			expanded += uint64(k)
		}
		n.buf.FlushAll()
		n.selfDone(m.wave, expanded)
	case phaseLoops:
		resolved := n.w.ResolveLoops()
		n.node.Busy(run.comp.PerLoop * sim.Time(resolved))
		n.selfDone(m.wave, resolved)
	case phaseFinish:
		// Nothing to do; the simulation drains.
	}
}
