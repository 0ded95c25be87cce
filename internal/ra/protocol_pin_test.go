package ra

import (
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/sim"
)

// TestSimProtocolPins pins the exact virtual-time outcome of the wave
// protocol on the simulated configurations bench/golden.json does not
// cover (it pins central-protocol Ethernet runs only): tree done
// aggregation, the switched network, and both together. Any change to
// the order or size of what a node sends, or to when it charges compute,
// moves at least one of these numbers.
func TestSimProtocolPins(t *testing.T) {
	g := awariRung(t, 6, awari.Standard, awari.LoopOwnSide)
	for _, c := range []struct {
		cfg       Distributed
		duration  sim.Time
		events    uint64
		data, ctl uint64
		flushes   uint64
	}{
		{Distributed{Workers: 9, Protocol: TreeProtocol}, 8544215700, 9452, 3680, 603, 4137},
		{Distributed{Workers: 8, Network: CrossbarNet, Combine: 4}, 10308839800, 12616, 5969, 536, 6358},
		{Distributed{Workers: 8, Protocol: TreeProtocol, Network: CrossbarNet}, 8779981400, 7452, 3387, 536, 3413},
	} {
		_, rep, err := c.cfg.SolveDetailed(g)
		if err != nil {
			t.Fatalf("%s: %v", c.cfg.Name(), err)
		}
		if rep.Duration != c.duration || rep.Events != c.events || rep.DataMessages != c.data ||
			rep.ProtocolMessages != c.ctl || rep.Combining.Flushes != c.flushes {
			t.Errorf("%s %v: duration %d, events %d, data %d, protocol %d, flushes %d; want %d, %d, %d, %d, %d",
				c.cfg.Name(), c.cfg.Protocol, int64(rep.Duration), rep.Events, rep.DataMessages, rep.ProtocolMessages, rep.Combining.Flushes,
				int64(c.duration), c.events, c.data, c.ctl, c.flushes)
		}
	}
}
