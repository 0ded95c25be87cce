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
// Prefetch is a hint, never a dependency: issuing is non-blocking (a
// busy window just skips the hint), a stale or failed prefetch falls
// back to the ordinary demand read, and the engine consumes results
// only through each job's done channel, so all state mutation stays on
// the engine thread in the same order as the synchronous engine —
// bit-identity is preserved by construction.

import (
	"sync"
	"time"

	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// DefaultPrefetchWindow is how many block reads may be in flight ahead
// of the wave. Each slot holds one decoded block's state streams, so the
// window bounds the prefetcher's memory like the write-behind depth
// bounds the writer's.
const DefaultPrefetchWindow = 4

// prefetchJob carries one block-read request through the prefetch
// pipeline and its decoded streams back. Jobs are pooled: at most
// window exist.
type prefetchJob struct {
	block int
	gen   uint64 // generation to read — stale (≠ b.gen at consume) is a miss

	// Set by the reader before done is closed.
	path       string
	vals, meta []game.Value
	blk        int       // block index the file claims
	kern       ra.Kernel // kernel the file claims
	n          int       // compressed bytes read
	err        error
	done       chan struct{}
}

// prefetcher owns the read-ahead half of the spill pipeline: a bounded
// request queue drained by one tracked reader goroutine.
type prefetcher struct {
	store  *spillStore
	wb     *writeback // nil when spilling is synchronous
	reqs   chan *prefetchJob
	free   chan *prefetchJob
	window int
	made   int // jobs allocated so far (engine goroutine only), ≤ window

	wg sync.WaitGroup

	// Reader-goroutine clocks, read by the engine only after close.
	readTime, decodeTime time.Duration
}

func newPrefetcher(store *spillStore, wb *writeback, window int) *prefetcher {
	p := &prefetcher{
		store:  store,
		wb:     wb,
		window: window,
		reqs:   make(chan *prefetchJob, window),
		free:   make(chan *prefetchJob, window),
	}
	p.wg.Add(1)
	go p.run()
	return p
}

// tryAcquire returns a free job buffer, or nil when all window jobs are
// in flight — prefetch is opportunistic and never worth a stall.
func (p *prefetcher) tryAcquire() *prefetchJob {
	select {
	case j := <-p.free:
		return j
	default:
	}
	if p.made < p.window {
		p.made++
		return &prefetchJob{}
	}
	return nil
}

// submit hands a request to the reader. The queue holds window entries
// and at most window jobs exist, so the send never blocks.
func (p *prefetcher) submit(j *prefetchJob) {
	j.err = nil
	j.done = make(chan struct{})
	p.reqs <- j
}

// release returns a consumed job to the pool; cap == window and at most
// window jobs exist, so the send never blocks.
func (p *prefetcher) release(j *prefetchJob) { p.free <- j }

// run is the reader goroutine: wait out any in-flight write of the same
// block, read, decode, publish. It exits when the request channel is
// closed and drained.
func (p *prefetcher) run() {
	defer p.wg.Done()
	for j := range p.reqs {
		j.err = p.fill(j)
		close(j.done)
	}
}

func (p *prefetcher) fill(j *prefetchJob) error {
	if p.wb != nil {
		// Read-after-write fence: the generation we want may still be in
		// the write-behind queue.
		if err := p.wb.waitBlock(j.block); err != nil {
			return err
		}
	}
	c := startSpillClock()
	data, path, err := p.store.read(j.block, j.gen)
	j.path = path
	if err != nil {
		return err
	}
	c.lap(&p.readTime)
	j.n = len(data)
	j.blk, j.kern, j.vals, j.meta, err = decodeSpill(path, data, j.vals, j.meta)
	c.lap(&p.decodeTime)
	return err
}

// close drains the queue and joins the reader goroutine; every submitted
// job's done channel is closed before it returns.
func (p *prefetcher) close() {
	close(p.reqs)
	p.wg.Wait()
}
