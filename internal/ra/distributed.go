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
//
// Async selects the barrier-free variant: every node expands its queue
// continuously, applies updates as they arrive, and global quiescence is
// detected with Safra's token ring before loop resolution runs as in the
// synchronous protocol. Asynchrony changes when updates are applied, not
// what they contain, so for order-insensitive value semantics (awari's
// capture counts — any game whose Better/Finalizes depend only on the
// value) the database is bit-identical to the synchronous engines'. WDL
// games encode distance-to-end inside the value, and distances are only
// exact under level-synchronous propagation: outcomes still agree, depths
// may not. The test suite asserts exactly that split.
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
	// Async drops the per-wave barrier (see above). An async result's
	// Waves are the Safra probe rounds.
	Async bool
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
	kind := "distributed"
	if d.Async {
		kind = "async"
	}
	return fmt.Sprintf("%s(p=%d,combine=%d,net=%v)", kind, d.workers(), d.combineSize(), d.Network)
}

// Wire sizes of the simulated protocol messages: what a real
// implementation would marshal for a done report or a token, and a go.
const (
	doneMsgBytes = 16
	goMsgBytes   = 8
)

// asyncChunk is how many positions an async node expands per Step.
const asyncChunk = 64

// Solve implements Engine. See SolveDetailed for the simulation report.
func (d Distributed) Solve(g game.Game) (*Result, error) {
	r, _, err := d.SolveDetailed(g)
	return r, err
}

// SolveDetailed runs the distributed analysis and also returns the
// simulation report (virtual time, traffic, combining factor). The same
// report is attached to the Result's Sim field.
func (d Distributed) SolveDetailed(g game.Game) (*Result, *SimReport, error) {
	run, err := d.newSimRun(g)
	if err != nil {
		return nil, nil, err
	}
	cfg := NodeConfig{Protocol: d.Protocol, Combine: d.combineSize(), Chunk: 1, Costs: DefaultComputeCosts(), Async: d.Async}
	if d.Compute != nil {
		cfg.Costs = *d.Compute
	}
	if d.Async {
		cfg.Chunk = asyncChunk
	}
	for i := range run.nodes {
		w, _ := NewWorkerKernel(g, run.part, i, KernelAuto) // Auto cannot fail
		run.start(w, cfg)
	}
	return run.solve(g, d.Name())
}

// simRun is a solve on the simulated cluster: the partition, the machine
// (event kernel, interconnect and nodes behind clu), and a Node on each
// cluster node.
type simRun struct {
	part  *Partition
	clu   *cluster.Cluster
	nodes []*Node

	protocolMsgs uint64
	err          error // the first node error; solve returns it
}

// start installs a node for worker w as its cluster node's program.
// Whenever an async node is runnable and no Step is pending, a Step is
// scheduled for when its CPU frees up. The first Start, Step or Deliver
// error on any node (an Init failure, a protocol violation) is the run's:
// every later event is dropped, so the simulation drains and solve
// returns that error.
func (r *simRun) start(w *Worker, cfg NodeConfig) {
	cn := r.clu.Node(w.ID())
	n := NewNode(w, simLink{node: cn, run: r}, cfg)
	r.nodes[w.ID()] = n
	stepping := false
	var schedule func()
	run := func(f func() error) {
		if r.err != nil {
			return
		}
		if r.err = f(); r.err == nil {
			schedule()
		}
	}
	step := func() {
		stepping = false
		run(n.Step)
	}
	schedule = func() {
		if stepping || !n.Runnable() {
			return
		}
		stepping = true
		r.clu.Kernel.At(max(cn.BusyUntil(), r.clu.Kernel.Now()), step)
	}
	cn.SetHandler(func(_ int, payload any) {
		run(func() error { return n.Deliver(payload.(Msg)) })
	})
	cn.Start(func() { run(n.Start) })
}

// simLink is a cluster node as the wave protocol's Transport. Every
// simulated network delivers one sender's messages in send order (the
// Ethernet bus is one FIFO queue, a crossbar serialises each source's
// link), so a done report never overtakes the batches sent before it
// and a simulated wave needs no sentinels; the message counts stay the
// paper's.
type simLink struct {
	node *cluster.Node
	run  *simRun
}

// Send implements Transport, declaring each message's wire size and
// counting everything but batches as protocol traffic.
func (l simLink) Send(dst int, m Msg) {
	bytes := len(m.Updates) * UpdateWireBytes
	if m.Kind != MsgBatch {
		l.run.protocolMsgs++
		bytes = goMsgBytes
		if m.Kind == MsgDone || m.Kind == MsgToken {
			bytes = doneMsgBytes
		}
	}
	l.node.Send(dst, m, bytes)
}

// Broadcast implements Transport.
func (l simLink) Broadcast(m Msg) { l.Send(network.Broadcast, m) }

// Busy implements Transport.
func (l simLink) Busy(d sim.Time) { l.node.Busy(d) }

// Sentinels implements Transport: none, see simLink.
func (simLink) Sentinels() int { return 0 }

// BeginExpand implements Transport; a simulated node keeps no
// checkpoints.
func (simLink) BeginExpand(int) error { return nil }

// newSimRun partitions g and builds the cluster; zero-valued overrides
// pick the 1995 calibration (DefaultEthernet, DefaultMessageCost).
func (d Distributed) newSimRun(g game.Game) (*simRun, error) {
	part, err := NewPartition(g.Size(), d.workers(), d.group())
	if err != nil {
		return nil, err
	}
	kernel := sim.New()
	netCfg := d.NetConfig
	if netCfg.BitsPerSec == 0 {
		netCfg = network.DefaultEthernet()
	}
	var net network.Network
	switch d.Network {
	case CrossbarNet:
		net, err = network.NewCrossbar(kernel, netCfg)
	default:
		net, err = network.NewEthernet(kernel, netCfg)
	}
	if err != nil {
		return nil, err
	}
	msgCost := DefaultMessageCost()
	if d.Cost != nil {
		msgCost = *d.Cost
	}
	clu, err := cluster.New(kernel, net, msgCost, d.workers())
	if err != nil {
		return nil, err
	}
	return &simRun{part: part, clu: clu, nodes: make([]*Node, d.workers())}, nil
}

// solve drains the simulation and assembles the result of the run named
// engine.
func (r *simRun) solve(g game.Game, engine string) (*Result, *SimReport, error) {
	duration := r.clu.Run()
	if r.err != nil {
		return nil, nil, r.err
	}
	if !r.nodes[0].Finished() {
		return nil, nil, fmt.Errorf("ra: %s run over %q stalled before completion", engine, g.Name())
	}
	result := NewResult(r.part, r.nodes[0].Waves())
	report := &SimReport{
		Net:              r.clu.Net.Stats(),
		Nodes:            make([]cluster.NodeStats, len(r.nodes)),
		DataMessages:     r.clu.Net.Stats().Messages - r.protocolMsgs,
		ProtocolMessages: r.protocolMsgs,
		Events:           r.clu.Kernel.Events(),
	}
	for i, n := range r.nodes {
		// The run ends when the last CPU drains, which can extend past the
		// last network event (e.g. the final loop-resolution compute).
		cn := r.clu.Node(i)
		duration = max(duration, cn.BusyUntil())
		result.Collect(n.w)
		cs := n.buf.Stats()
		report.Combining.Items += cs.Items
		report.Combining.Flushes += cs.Flushes
		report.Combining.FullFlushes += cs.FullFlushes
		report.Combining.ForcedFlushes += cs.ForcedFlushes
		report.Combining.MaxBatch = max(report.Combining.MaxBatch, cs.MaxBatch)
		report.Nodes[i] = cn.Stats()
		report.LocalUpdates += n.localUpdates
		report.RemoteUpdates += n.remoteUpdates
	}
	report.Duration = duration
	result.Sim = report
	return result, report, nil
}
