package ra

import (
	"fmt"
	"runtime"
	"sync"

	"retrograde/internal/combine"
	"retrograde/internal/game"
)

// Concurrent is the shared-memory parallel engine: one goroutine per
// shard for the whole solve, update batches carried over channels. It
// mirrors the distributed algorithm (same waves, same combining) but with
// the host's real cores, so it both validates the distributed engine and
// gives genuine wall-clock speedups for building real databases.
//
// Shards are run-shaped: by default the position space is dealt in
// blocks of consecutive positions (see group), because the batch move
// generators and the word-parallel kernel amortise their work over runs
// of consecutive indices. The wire engines deal cyclically instead —
// their cost is messages, and cyclic dealing balances 64 nodes exactly.
//
// The transport carries run-encoded updates (UpdateRun) under either wave
// kernel. The hot path is allocation-free in steady state: batch backing
// arrays are recycled between receiver and sender through a shared pool,
// and updates a worker addresses to itself are applied inline (the
// self-delivery fast path) instead of round-tripping through a combining
// buffer and channel.
type Concurrent struct {
	// Workers is the number of shards; 0 means GOMAXPROCS.
	Workers int
	// Batch is the number of update runs combined into one channel send;
	// 0 means 256, 1 disables batching (the unbatched ablation).
	Batch int
	// Group is the block-cyclic partition group size; 0 derives a
	// run-sized block from the size of the space (see group), 1 is the
	// cyclic map.
	Group uint64
	// Config selects the wave kernel (auto by default).
	Config Config
}

// Name implements Engine.
func (c Concurrent) Name() string {
	group := "auto" // derived per game: Name does not know the size
	if c.Group > 0 {
		group = fmt.Sprint(c.Group)
	}
	return fmt.Sprintf("concurrent(p=%d,batch=%d,group=%s)", c.workers(), c.batch(), group)
}

func (c Concurrent) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Concurrent) batch() int {
	if c.Batch > 0 {
		return c.Batch
	}
	return 256
}

// Derived block-cyclic group bounds. Every derived group is a power-of-two
// multiple of minGroup, so shards never share a loop-bitset word and
// assemble their part of the result in parallel.
const (
	maxGroup       = 4096 // the sweep's optimum on large spaces (EXPERIMENTS.md E7)
	minGroup       = 64   // one loop-bitset word
	groupsPerShard = 8    // below this the last, partial round of groups unbalances the shards
)

// group returns the partition group for a space of size positions over p
// shards: the explicit Group when set, otherwise the largest derived
// group that still deals every shard groupsPerShard groups.
func (c Concurrent) group(size uint64, p int) uint64 {
	if c.Group > 0 {
		return c.Group
	}
	g := uint64(maxGroup)
	for g > minGroup && size < groupsPerShard*g*uint64(p) {
		g /= 2
	}
	return g
}

// expandChunk is how many queue positions a worker expands between inbox
// drains, so incoming batches are consumed while expansion is in flight.
const expandChunk = 512

// waveMsg is one message on a worker's inbox: a batch of update runs or
// the end-of-wave signal from one sender. The explicit done flag (rather
// than a nil-slice sentinel) means a legitimately empty batch can never
// be mistaken for end-of-wave.
type waveMsg struct {
	runs []UpdateRun
	done bool
}

// waveBarrier is the reusable all-shards rendezvous between the phases
// of a solve. Every arrival contributes a count and every party leaves
// with the sum, which is how the shards agree that a wave is empty (or
// that an initialisation failed) without a coordinator.
type waveBarrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	waiting int
	acc     int // contributions of the generation in progress
	total   int // sum of the last completed generation
	gen     uint64
}

func newWaveBarrier(parties int) *waveBarrier {
	b := &waveBarrier{parties: parties}
	b.cond.L = &b.mu
	return b
}

// sum blocks until all parties have arrived and returns the sum of their
// contributions. total is only overwritten when the next generation
// completes, which needs every party to have left this one.
func (b *waveBarrier) sum(x int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.acc += x
	b.waiting++
	if b.waiting == b.parties {
		b.total, b.acc, b.waiting = b.acc, 0, 0
		b.gen++
		b.cond.Broadcast()
		return b.total
	}
	for gen := b.gen; gen == b.gen; {
		b.cond.Wait()
	}
	return b.total
}

// waveWorker is one shard's transport state in the Concurrent engine:
// the worker itself plus the combining buffer, inbox and batch pool it
// shares with its peers. All fields are touched only by the single
// goroutine driving the shard.
type waveWorker struct {
	me    int
	p     int
	w     *Worker
	inbox []chan waveMsg   // all inboxes; ours is inbox[me]
	free  chan []UpdateRun // shared pool of recycled batch arrays
	buf   *combine.Buffer[UpdateRun]

	add   func(owner int, r UpdateRun) // bound buf.Add, allocated once
	done  int                          // end-of-wave signals seen this wave
	waves int

	ph    *ShardPhases // this shard's clocks
	clock phaseClock
}

func newWaveWorker(w *Worker, inbox []chan waveMsg, free chan []UpdateRun, batch int, ph *ShardPhases) *waveWorker {
	ww := &waveWorker{
		me:    w.ID(),
		p:     len(inbox),
		w:     w,
		inbox: inbox,
		free:  free,
		ph:    ph,
	}
	ww.buf = combine.MustNew(ww.p, batch, func(dst int, b []UpdateRun) {
		ww.post(dst, waveMsg{runs: b})
	})
	ww.buf.SetAlloc(ww.alloc)
	ww.add = ww.buf.Add
	return ww
}

// alloc hands the combining buffer a recycled batch array when one is
// available, allocating only while the pool warms up.
func (ww *waveWorker) alloc() []UpdateRun {
	select {
	case b := <-ww.free:
		return b
	default:
		return make([]UpdateRun, 0, ww.buf.Capacity())
	}
}

// recycle returns a consumed batch array to the pool (dropping it if the
// pool is full — the array is then ordinary garbage).
func (ww *waveWorker) recycle(b []UpdateRun) {
	select {
	case ww.free <- b[:0]:
	default:
	}
}

// apply consumes one inbox message and charges it to the Apply clock;
// the caller has charged everything before it.
func (ww *waveWorker) apply(m waveMsg) {
	if m.done {
		ww.done++
		return
	}
	for _, r := range m.runs {
		ww.w.ApplyRun(r)
	}
	ww.recycle(m.runs)
	ww.clock.lap(&ww.ph.Apply)
}

// post delivers a message to dst, draining our own inbox whenever the
// destination's is full. A blocked sender is therefore always a consuming
// receiver, which rules out send-cycle deadlock.
func (ww *waveWorker) post(dst int, m waveMsg) {
	select {
	case ww.inbox[dst] <- m:
		return
	default:
	}
	ww.clock.lap(&ww.ph.Expand)
	for {
		select {
		case ww.inbox[dst] <- m:
			ww.clock.lap(&ww.ph.Post)
			return
		case in := <-ww.inbox[ww.me]:
			ww.clock.lap(&ww.ph.Post)
			ww.apply(in)
		}
	}
}

// drain consumes every message currently queued on our inbox.
func (ww *waveWorker) drain() {
	for {
		select {
		case m := <-ww.inbox[ww.me]:
			ww.clock.lap(&ww.ph.Expand)
			ww.apply(m)
		default:
			return
		}
	}
}

// wave runs this shard's part of one propagation wave: expand the wave
// queue in chunks (self-owned updates applied inline, remote ones routed
// through the pooled combining buffer), drain the inbox between chunks,
// then flush, signal end-of-wave to every peer, and consume the inbox
// until all peers have signalled.
func (ww *waveWorker) wave() {
	for ww.w.ExpandRuns(expandChunk, ww.add) > 0 {
		ww.drain()
	}
	ww.buf.FlushAll()
	for dst := 0; dst < ww.p; dst++ {
		if dst == ww.me {
			ww.done++
			continue
		}
		ww.post(dst, waveMsg{done: true})
	}
	ww.clock.lap(&ww.ph.Expand)
	for ww.done < ww.p {
		m := <-ww.inbox[ww.me]
		ww.clock.lap(&ww.ph.Barrier) // waiting on the slowest peer's wave
		ww.apply(m)
	}
}

// solve drives the shard through the whole analysis: initialisation,
// waves until every shard's queue is empty, loop resolution, and the
// shard's part of the result. The one barrier per wave sits between
// BeginWave and expansion: once a shard has every peer's end-of-wave
// signal all updates of the wave have reached it, and no peer expands the
// next wave before all have promoted their queues. Loop resolution and
// the fill touch only the shard's own state and its own ranges of r.
func (ww *waveWorker) solve(bar *waveBarrier, r *Result, fillLoop bool) error {
	ww.clock = startPhaseClock()
	_, err := ww.w.Init()
	ww.clock.lap(&ww.ph.Init)
	failed := 0
	if err != nil {
		failed = 1
	}
	failed = bar.sum(failed)
	ww.clock.lap(&ww.ph.Barrier)
	if failed > 0 {
		return err
	}
	for {
		ww.done = 0
		n := ww.w.BeginWave()
		ww.clock.lap(&ww.ph.Expand)
		total := bar.sum(n)
		ww.clock.lap(&ww.ph.Barrier)
		if total == 0 {
			break
		}
		ww.waves++
		ww.wave()
	}
	ww.w.ResolveLoops()
	ww.clock.lap(&ww.ph.Loops)
	ww.w.Fill(r.Values)
	if fillLoop {
		ww.w.FillLoop(r.Loop)
	}
	ww.clock.lap(&ww.ph.Fill)
	return nil
}

// Solve implements Engine.
func (c Concurrent) Solve(g game.Game) (*Result, error) {
	p := c.workers()
	part, err := NewPartition(g.Size(), p, c.group(g.Size(), p))
	if err != nil {
		return nil, err
	}
	r := NewResult(part, 0)
	r.Phases = make([]ShardPhases, p)
	// Inboxes are buffered so that senders rarely block; post drains its
	// own inbox while blocked, so any buffer size is deadlock-free.
	inbox := make([]chan waveMsg, p)
	for i := range inbox {
		inbox[i] = make(chan waveMsg, 4*p)
	}
	// free is the shared emit/recycle pool of batch backing arrays;
	// after warm-up, waves move updates without allocating. Sized to hold
	// every array that can circulate at once (all inbox slots plus every
	// sender's partial per-destination batches), so recycles never drop.
	free := make(chan []UpdateRun, 5*p*p+p)
	wws := make([]*waveWorker, p)
	for i := range wws {
		w, err := NewWorkerKernel(g, part, i, c.Config.Kernel)
		if err != nil {
			return nil, err
		}
		wws[i] = newWaveWorker(w, inbox, free, c.batch(), &r.Phases[i])
	}

	// Shards whose groups are whole bitset words own disjoint words of
	// r.Loop and fill them themselves; any other explicit group shares
	// words between shards, so those loop sets are folded in serially.
	ownWords := part.Group()%minGroup == 0
	bar := newWaveBarrier(p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i, ww := range wws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ww.solve(bar, r, ownWords)
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	r.Waves = wws[0].waves
	for _, ww := range wws {
		if !ownWords {
			ww.w.FillLoop(r.Loop)
		}
		r.collectStats(ww.w)
	}
	return r, nil
}
