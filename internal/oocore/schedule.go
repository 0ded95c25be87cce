package oocore

// Frontier-aware block scheduling: the host driver hands every pass's
// visit order to Visit before it touches anything, so the residency
// knows exactly which blocks the pass will expand or land runs on (the
// touch set) — and BeginWave's promotion makes the *next*
// wave's frontier visible one wave early through Worker.PeekWave. The
// prefetcher turns that knowledge into overlap: a tracked reader
// goroutine pulls the next needed blocks off the spill store and decodes
// them while the engine is still expanding the current one, so a demand
// load finds the streams already in memory and only pays RestoreState.
//
// The reader runs the store's one read step (writeback.fetch) into a
// pooled read job; a demand load runs the same step into the manager's
// own job, and both end in the one restore step (blockManager.reload).
// Prefetch is a hint, never a dependency: issuing is non-blocking (a
// busy window just skips the hint), a stale prefetch falls back to the
// demand read, and the engine consumes results only through each job's
// done channel, so all state mutation stays on the engine thread in the
// same order as the synchronous engine — bit-identity is preserved by
// construction.

import (
	"sync"
	"time"
)

// DefaultPrefetchWindow is how many block reads may be in flight ahead
// of the wave. Each slot holds one decoded block's state streams, so the
// window bounds the prefetcher's memory like the write-behind depth
// bounds the writer's.
const DefaultPrefetchWindow = 4

// prefetcher owns the read-ahead half of the spill pipeline: a bounded
// request queue of read jobs drained by one tracked reader goroutine
// that runs the store's read step on each.
type prefetcher struct {
	wb     *writeback
	reqs   chan *readJob
	free   chan *readJob
	window int
	made   int // jobs allocated so far (engine goroutine only), ≤ window

	wg sync.WaitGroup

	// Reader-goroutine clocks, read by the engine only after close.
	readTime, decodeTime time.Duration
}

func newPrefetcher(wb *writeback, window int) *prefetcher {
	p := &prefetcher{
		wb:     wb,
		window: window,
		reqs:   make(chan *readJob, window),
		free:   make(chan *readJob, window),
	}
	p.wg.Add(1)
	go p.run()
	return p
}

// tryAcquire returns a free job buffer, or nil when all window jobs are
// in flight — prefetch is opportunistic and never worth a stall.
func (p *prefetcher) tryAcquire() *readJob {
	select {
	case j := <-p.free:
		return j
	default:
	}
	if p.made < p.window {
		p.made++
		return &readJob{}
	}
	return nil
}

// submit hands a request to the reader. The queue holds window entries
// and at most window jobs exist, so the send never blocks.
func (p *prefetcher) submit(j *readJob) {
	j.done = make(chan struct{})
	p.reqs <- j
}

// release returns a consumed job to the pool; cap == window and at most
// window jobs exist, so the send never blocks.
func (p *prefetcher) release(j *readJob) { p.free <- j }

// run is the reader goroutine: fetch, publish. It exits when the
// request channel is closed and drained.
func (p *prefetcher) run() {
	defer p.wg.Done()
	for j := range p.reqs {
		p.wb.fetch(j)
		p.readTime += j.read
		p.decodeTime += j.decode
		close(j.done)
	}
}

// close drains the queue and joins the reader goroutine; every submitted
// job's done channel is closed before it returns.
func (p *prefetcher) close() {
	close(p.reqs)
	p.wg.Wait()
}
