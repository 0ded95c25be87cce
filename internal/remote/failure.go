package remote

import (
	"fmt"
	"time"
)

// The paper's cluster runs assume no processor fails for the duration of
// the solve; a deployable engine cannot. Failure detection here is
// deadline-based: every connection carries periodic heartbeats, every
// read arms a deadline of the engine's Timeout, and every write must
// complete within it. A peer that crashes closes its sockets (seen as an
// EOF with no preceding bye frame); a peer that wedges — alive but
// silent, the harder case — trips the read deadline once its heartbeats
// stop arriving. Either way the solve unwinds with a NodeFailedError
// within a bounded time instead of hanging. A node that unwinds sends
// each peer a last fail frame naming the node it blames (itself, for its
// own error), and a peer reading it blames that node too, so the
// detector's suspect, not the node whose sockets closed first, is the one
// every NodeFailedError names.

// Failure-detection parameters (see Engine.Timeout).
const (
	// DefaultTimeout bounds how long a node waits for any traffic
	// (heartbeats included) from a peer before declaring it dead, and
	// how long a single write may take.
	DefaultTimeout = 15 * time.Second
	// heartbeatDiv sets the heartbeat interval, Timeout/heartbeatDiv:
	// several beats fit in one timeout window, so a single delayed beat
	// does not trip the detector.
	heartbeatDiv = 4
)

// NodeFailedError reports that a node of the mesh died or wedged
// mid-solve. It names the failed node and the phase and wave the
// detecting node was in, so an operator of a multi-hour run knows where
// to look — and, with checkpointing enabled, from where the re-run will
// resume.
type NodeFailedError struct {
	// Node is the mesh id of the failed peer.
	Node int
	// Phase is the protocol phase of the detecting node ("init",
	// "expand", "loops", "finish").
	Phase string
	// Wave is the wave the detecting node was working on.
	Wave int
	// Err is the underlying cause: a deadline timeout for a wedged
	// peer, an unexpected EOF for a crashed one, a write error, or the
	// fail frame of the peer that blamed it.
	Err error
}

func (e *NodeFailedError) Error() string {
	return fmt.Sprintf("remote: node %d failed during %s (wave %d): %v", e.Node, e.Phase, e.Wave, e.Err)
}

func (e *NodeFailedError) Unwrap() error { return e.Err }

func (e Engine) timeout() time.Duration {
	if e.Timeout > 0 {
		return e.Timeout
	}
	return DefaultTimeout
}

// heartbeats periodically enqueues a beat to every peer so that a
// healthy but idle connection never trips the read deadline. Runs in its
// own goroutine; stops when the node's run loop exits.
func (ep *endpoint) heartbeats(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ep.broadcastFrame(encodeCtl(frameHeartbeat, 0, 0, 0))
		case <-ep.quit:
			return
		}
	}
}
