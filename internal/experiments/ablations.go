package experiments

import (
	"fmt"

	"retrograde/internal/ra"
	"retrograde/internal/stats"
)

// A1Partition compares position-to-processor maps: cyclic (the paper's
// modulo map), block, and block-cyclic with intermediate group sizes.
// What matters is load balance of the shards' work and the fraction of
// predecessor edges that cross processors.
func A1Partition(env *Env) (*stats.Table, error) {
	p := maxProcs(env.Scale.Procs)
	slice := env.Headline()
	blockGroup := (slice.Size() + uint64(p) - 1) / uint64(p)
	t := stats.NewTable(
		fmt.Sprintf("A1: partition map ablation (awari-%d, %d processors)", env.Scale.Stones, p),
		"group size", "map", "virtual time", "remote updates %", "cpu imbalance")
	for _, g := range []struct {
		group uint64
		label string
	}{
		{1, "cyclic (paper)"},
		{64, "block-cyclic/64"},
		{4096, "block-cyclic/4096"},
		{blockGroup, "block"},
	} {
		_, rep, err := env.solveDistributed(ra.Distributed{Workers: p, Group: g.group})
		if err != nil {
			return nil, err
		}
		busy := make([]float64, len(rep.Nodes))
		for i, ns := range rep.Nodes {
			busy[i] = ns.Busy.Seconds()
		}
		t.Row(g.label,
			fmt.Sprintf("G=%d", g.group),
			rep.Duration.String(),
			pct(rep.RemoteUpdates, rep.LocalUpdates+rep.RemoteUpdates),
			stats.ComputeBalance(busy).Imbalance)
	}
	t.Note("awari predecessors scatter widely, so remote fractions stay near (p-1)/p for all maps; imbalance is the differentiator")
	return t, nil
}

// A2Interconnect swaps the shared Ethernet bus for a switched crossbar:
// how much of the combining win is really about the bus? On a switched
// fabric small messages still pay per-message software overhead, but they
// no longer serialize globally.
func A2Interconnect(env *Env) (*stats.Table, error) {
	p := maxProcs(env.Scale.Procs)
	t := stats.NewTable(
		fmt.Sprintf("A2: interconnect ablation (awari-%d, %d processors)", env.Scale.Stones, p),
		"network", "combining", "virtual time", "wire msgs", "medium busy")
	for _, net := range []ra.NetworkKind{ra.EthernetNet, ra.CrossbarNet} {
		for _, c := range []int{1, 100} {
			_, rep, err := env.solveDistributed(ra.Distributed{Workers: p, Combine: c, Network: net})
			if err != nil {
				return nil, err
			}
			mode := "on"
			if c == 1 {
				mode = "off"
			}
			t.Row(net.String(), mode, rep.Duration.String(),
				stats.Count(rep.DataMessages), rep.Net.Busy.String())
		}
	}
	t.Note("at this scale the cost of small messages is per-message host software overhead, which a switched fabric does not remove — the gap barely moves")
	return t, nil
}

// A3Termination measures the wave/termination protocol itself: barrier
// messages and their share of traffic as the cluster grows, comparing
// the central coordinator (every node reports to node 0, which pays O(p)
// serial receives per wave) against a binary combining tree (no node
// handles more than three protocol messages per wave). The paper's
// algorithm needs a quiescence decision every iteration; this is its
// price.
func A3Termination(env *Env) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("A3: wave/termination protocol cost (awari-%d)", env.Scale.Stones),
		"procs", "waves", "protocol msgs", "protocol share %", "central time", "tree time", "tree gain")
	for _, p := range env.Scale.Procs {
		res, central, err := env.solveDistributed(ra.Distributed{Workers: p})
		if err != nil {
			return nil, err
		}
		_, tree, err := env.solveDistributed(ra.Distributed{Workers: p, Protocol: ra.TreeProtocol})
		if err != nil {
			return nil, err
		}
		t.Row(p,
			res.Waves,
			stats.Count(central.ProtocolMessages),
			pct(central.ProtocolMessages, central.ProtocolMessages+central.DataMessages),
			central.Duration.String(),
			tree.Duration.String(),
			central.Duration.Seconds()/tree.Duration.Seconds())
	}
	t.Note("protocol messages grow as waves*(p+1); the tree removes the coordinator's O(p) serial receives per wave")
	return t, nil
}

// A4Asynchrony compares the paper's wave-synchronous algorithm against a
// fully asynchronous variant (no barriers; global quiescence detected
// with Safra's token ring). Awari's capture-count values are
// order-insensitive, so the two produce identical databases — the
// question is purely protocol cost and idle time.
func A4Asynchrony(env *Env) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("A4: wave-synchronous vs asynchronous (awari-%d)", env.Scale.Stones),
		"procs", "sync time", "async time", "async gain", "sync proto msgs", "async proto msgs", "probe rounds")
	for _, p := range env.Scale.Procs {
		_, sync_, err := env.solveDistributed(ra.Distributed{Workers: p})
		if err != nil {
			return nil, err
		}
		asyncRes, asyncRep, err := env.solveDistributed(ra.Distributed{Workers: p, Async: true})
		if err != nil {
			return nil, err
		}
		t.Row(p,
			sync_.Duration.String(),
			asyncRep.Duration.String(),
			sync_.Duration.Seconds()/asyncRep.Duration.Seconds(),
			stats.Count(sync_.ProtocolMessages),
			stats.Count(asyncRep.ProtocolMessages),
			asyncRes.Waves)
	}
	t.Note("asynchrony removes per-wave barrier idling; it also lets buffers fill across wave boundaries, raising the combining factor")
	return t, nil
}
