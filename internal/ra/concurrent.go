package ra

import (
	"fmt"
	"runtime"
	"sync"

	"retrograde/internal/combine"
	"retrograde/internal/game"
)

// Concurrent is the shared-memory parallel engine: one goroutine per
// shard, update batches carried over channels. It mirrors the distributed
// algorithm (same waves, same combining) but with the host's real cores,
// so it both validates the distributed engine and gives genuine wall-clock
// speedups for building real databases.
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
	// Group is the block-cyclic partition group size; 0 means 1 (cyclic).
	Group uint64
	// Config selects the wave kernel (auto by default).
	Config Config
}

// Name implements Engine.
func (c Concurrent) Name() string {
	return fmt.Sprintf("concurrent(p=%d,batch=%d)", c.workers(), c.batch())
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

func (c Concurrent) group() uint64 {
	if c.Group > 0 {
		return c.Group
	}
	return 1
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

// waveWorker is one shard's transport state in the Concurrent engine:
// the worker itself plus the combining buffer, inbox and batch pool it
// shares with its peers. All fields are touched only by the single
// goroutine driving the shard during a wave; wave boundaries are
// WaitGroup barriers.
type waveWorker struct {
	me    int
	p     int
	w     *Worker
	inbox []chan waveMsg   // all inboxes; ours is inbox[me]
	free  chan []UpdateRun // shared pool of recycled batch arrays
	buf   *combine.Buffer[UpdateRun]

	add  func(owner int, r UpdateRun) // bound buf.Add, allocated once
	done int                          // end-of-wave signals seen this wave
}

func newWaveWorker(w *Worker, inbox []chan waveMsg, free chan []UpdateRun, batch int) *waveWorker {
	ww := &waveWorker{
		me:    w.ID(),
		p:     len(inbox),
		w:     w,
		inbox: inbox,
		free:  free,
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

// apply consumes one inbox message.
func (ww *waveWorker) apply(m waveMsg) {
	if m.done {
		ww.done++
		return
	}
	for _, r := range m.runs {
		ww.w.ApplyRun(r)
	}
	ww.recycle(m.runs)
}

// post delivers a message to dst, draining our own inbox whenever the
// destination's is full. A blocked sender is therefore always a consuming
// receiver, which rules out send-cycle deadlock.
func (ww *waveWorker) post(dst int, m waveMsg) {
	for {
		select {
		case ww.inbox[dst] <- m:
			return
		case in := <-ww.inbox[ww.me]:
			ww.apply(in)
		}
	}
}

// drain consumes every message currently queued on our inbox.
func (ww *waveWorker) drain() {
	for {
		select {
		case m := <-ww.inbox[ww.me]:
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
	ww.done = 0
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
	for ww.done < ww.p {
		ww.apply(<-ww.inbox[ww.me])
	}
}

// Solve implements Engine.
func (c Concurrent) Solve(g game.Game) (*Result, error) {
	p := c.workers()
	part, err := NewPartition(g.Size(), p, c.group())
	if err != nil {
		return nil, err
	}
	workers := make([]*Worker, p)
	// Inboxes are buffered so that senders rarely block; post drains its
	// own inbox while blocked, so any buffer size is deadlock-free.
	inbox := make([]chan waveMsg, p)
	for i := range workers {
		workers[i], err = NewWorkerKernel(g, part, i, c.Config.Kernel)
		if err != nil {
			return nil, err
		}
		inbox[i] = make(chan waveMsg, 4*p)
	}
	// free is the shared emit/recycle pool of batch backing arrays;
	// after warm-up, waves move updates without allocating. Sized to hold
	// every array that can circulate at once (all inbox slots plus every
	// sender's partial per-destination batches), so recycles never drop.
	free := make(chan []UpdateRun, 5*p*p+p)
	wws := make([]*waveWorker, p)
	for i, w := range workers {
		wws[i] = newWaveWorker(w, inbox, free, c.batch())
	}

	// Phase 1: initialisation, embarrassingly parallel.
	var wg sync.WaitGroup
	initErrs := make([]error, p)
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			_, initErrs[i] = w.Init()
		}(i, w)
	}
	wg.Wait()
	for _, e := range initErrs {
		if e != nil {
			return nil, e
		}
	}

	// Phase 2: wave-synchronous propagation. Each wave, every shard runs
	// one goroutine that interleaves expansion with draining its inbox
	// and finishes when every peer's end-of-wave signal has arrived. A
	// barrier separates waves.
	waves := 0
	for {
		total := 0
		for _, w := range workers {
			total += w.BeginWave()
		}
		if total == 0 {
			break
		}
		waves++
		for _, ww := range wws {
			wg.Add(1)
			go func(ww *waveWorker) {
				defer wg.Done()
				ww.wave()
			}(ww)
		}
		wg.Wait()
	}

	// Phase 3: loop resolution, embarrassingly parallel.
	for _, w := range workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			w.ResolveLoops()
		}(w)
	}
	wg.Wait()

	r := NewResult(part, waves)
	for _, w := range workers {
		r.Collect(w)
	}
	return r, nil
}
