package ra

import (
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/sim"
)

// TestSimProtocolPins pins the exact virtual-time outcome of the wave
// protocol on the simulated configurations bench/golden.json does not
// cover (it pins central-protocol Ethernet runs only): tree done
// aggregation, the switched network, and both together; and of the async
// mode on Ethernet and on tree/crossbar, where waves counts Safra probe
// rounds. Any change to the order or size of what a node sends, or to
// when it charges compute, moves at least one of these numbers.
func TestSimProtocolPins(t *testing.T) {
	g := awariRung(t, 6, awari.Standard, awari.LoopOwnSide)
	for _, c := range []struct {
		cfg       Distributed
		duration  sim.Time
		events    uint64
		data, ctl uint64
		flushes   uint64
		waves     int
	}{
		{Distributed{Workers: 9, Protocol: TreeProtocol}, 8544215700, 9452, 3680, 603, 4137, 64},
		{Distributed{Workers: 8, Network: CrossbarNet, Combine: 4}, 10308839800, 12616, 5969, 536, 6358, 64},
		{Distributed{Workers: 8, Protocol: TreeProtocol, Network: CrossbarNet}, 8779981400, 7452, 3387, 536, 3413, 64},
		{Distributed{Workers: 8, Async: true}, 8014762000, 8595, 3820, 49, 4366, 6},
		{Distributed{Workers: 9, Protocol: TreeProtocol, Network: CrossbarNet, Async: true}, 7567804800, 9980, 4565, 46, 5116, 5},
	} {
		res, rep, err := c.cfg.SolveDetailed(g)
		if err != nil {
			t.Fatalf("%s: %v", c.cfg.Name(), err)
		}
		if rep.Duration != c.duration || rep.Events != c.events || rep.DataMessages != c.data ||
			rep.ProtocolMessages != c.ctl || rep.Combining.Flushes != c.flushes || res.Waves != c.waves {
			t.Errorf("%s %v: duration %d, events %d, data %d, protocol %d, flushes %d, waves %d; want %d, %d, %d, %d, %d, %d",
				c.cfg.Name(), c.cfg.Protocol, int64(rep.Duration), rep.Events, rep.DataMessages, rep.ProtocolMessages, rep.Combining.Flushes, res.Waves,
				int64(c.duration), c.events, c.data, c.ctl, c.flushes, c.waves)
		}
	}
}
