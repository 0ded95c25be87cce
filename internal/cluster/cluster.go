// Package cluster provides the processing-node substrate of the simulated
// distributed system: nodes with a modelled CPU (per-message software
// overhead, chargeable compute time) attached to a modelled interconnect.
//
// The timing model captures what mattered on the paper's platform: a node
// pays host CPU time for every message it sends and receives (the
// software/protocol overhead that dominated 1995 Ethernet messaging), and
// all of a node's activities — compute, send processing, receive
// processing — serialize on its single CPU.
package cluster

import (
	"fmt"

	"retrograde/internal/network"
	"retrograde/internal/sim"
)

// CostModel is the per-node timing model.
type CostModel struct {
	// SendOverhead is host CPU charged for each message sent.
	SendOverhead sim.Time
	// RecvOverhead is host CPU charged for each message received.
	RecvOverhead sim.Time
	// PerByteSend/PerByteRecv charge additional host CPU per payload byte
	// (memory copies through the protocol stack).
	PerByteSend sim.Time
	PerByteRecv sim.Time
}

// Cluster is a set of nodes sharing a kernel and an interconnect.
type Cluster struct {
	Kernel *sim.Kernel
	Net    network.Network
	Cost   CostModel
	nodes  []*Node
}

// New builds a cluster of n nodes attached to net.
func New(k *sim.Kernel, net network.Network, cost CostModel, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	c := &Cluster{Kernel: k, Net: net, Cost: cost}
	c.nodes = make([]*Node, n)
	for i := range c.nodes {
		node := &Node{id: i, c: c}
		c.nodes[i] = node
		net.Attach(i, node.receive)
	}
	return c, nil
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Run executes the simulation to completion and returns the final time.
func (c *Cluster) Run() sim.Time { return c.Kernel.Run() }

// NodeStats summarises one node's activity.
type NodeStats struct {
	Sent, Received       uint64
	SentBytes, RecvBytes uint64
	Busy                 sim.Time
}

// Node is one simulated processor.
type Node struct {
	id        int
	c         *Cluster
	busyUntil sim.Time
	handler   func(from int, payload any)
	stats     NodeStats
}

// ID returns the node's id.
func (n *Node) ID() int { return n.id }

// Stats returns the node's activity counters.
func (n *Node) Stats() NodeStats { return n.stats }

// SetHandler installs the message handler. Handlers run as simulation
// events; any processing cost they incur must be charged via Busy.
func (n *Node) SetHandler(h func(from int, payload any)) { n.handler = h }

// Busy charges d of CPU time to the node, starting when the CPU frees up.
func (n *Node) Busy(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("cluster: negative busy time %v", d))
	}
	start := n.c.Kernel.Now()
	if n.busyUntil > start {
		start = n.busyUntil
	}
	n.busyUntil = start + d
	n.stats.Busy += d
}

// BusyUntil returns the virtual time at which the node's CPU frees up.
func (n *Node) BusyUntil() sim.Time { return n.busyUntil }

// Send transmits payload (declared as bytes on the wire) to node `to`, or
// to every other node when to == network.Broadcast. The sender's CPU is
// charged the per-message software overhead, and the message enters the
// wire only once that processing completes.
func (n *Node) Send(to int, payload any, bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("cluster: negative message size %d", bytes))
	}
	n.Busy(n.c.Cost.SendOverhead + sim.Time(bytes)*n.c.Cost.PerByteSend)
	n.stats.Sent++
	n.stats.SentBytes += uint64(bytes)
	m := network.Message{From: n.id, To: to, Payload: payload, Bytes: bytes}
	n.c.Kernel.At(n.busyUntil, func() { n.c.Net.Send(m) })
}

// Start schedules fn to run on the node at the current virtual time —
// the node's "main" entry point.
func (n *Node) Start(fn func()) {
	n.c.Kernel.After(0, fn)
}

// receive is the network delivery callback.
func (n *Node) receive(m network.Message) {
	n.Busy(n.c.Cost.RecvOverhead + sim.Time(m.Bytes)*n.c.Cost.PerByteRecv)
	n.stats.Received++
	n.stats.RecvBytes += uint64(m.Bytes)
	if n.handler == nil {
		panic(fmt.Sprintf("cluster: node %d received a message without a handler", n.id))
	}
	n.handler(m.From, m.Payload)
}
