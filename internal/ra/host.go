package ra

import (
	"slices"
	"sync"

	"retrograde/internal/combine"
	"retrograde/internal/game"
)

// The host driver is the one wave loop of every engine that runs in host
// time: the shards of a partition, held by P goroutines (shard i by
// goroutine i mod P), initialised, then driven wave by wave — begin, one
// sum-barrier, expand, combine per destination shard, exchange at the
// wave's end — and finally resolved and collected. Sequential is one
// goroutine holding one shard, Concurrent one goroutine per shard, and
// the out-of-core engine one goroutine holding all of its blocks.

// hostBatch is the number of update runs combined into one delivery to
// a destination shard.
const hostBatch = 256

// expandChunk is how many queue positions a goroutine expands between
// inbox drains, so incoming batches are consumed while expansion is in
// flight.
const expandChunk = 512

// Residency is where a host solve keeps its shards' state: in core
// throughout for the in-core engines, spilled and reloaded for the
// out-of-core engine. A run addressed to a shard whose state is away is
// parked on it, and the shard defers its next BeginWave to its visit,
// where the previous wave's parked runs land first — the in-core order
// per shard, and updates within a wave commute across shards.
type Residency interface {
	// Init returns shard i ready for its first wave: its worker built and
	// initialised, or restored as it was checkpointed.
	Init(i int) (*Worker, error)
	// Visit calls fn for the shards of order, in order, each resident
	// and pinned for the call, with the runs parked on it, which it then
	// forgets. A visited shard's state counts as written.
	Visit(order []int, fn func(i int, parked []UpdateRun)) error
	// Parked returns how many runs are parked on shard i.
	Parked(i int) int
	// Land applies runs to shard i when its state is resident and parks
	// them on it otherwise. It does not keep runs.
	Land(i int, runs []UpdateRun)
	// WaveEnd closes the solve's wave number waves, counted across
	// resumes; reverse is the direction of the next pass. An error,
	// ErrPaused included, ends the solve.
	WaveEnd(waves int, reverse bool) error
	// Drop releases shard i's state once its values are collected.
	Drop(i int)
}

// HostSolve runs the host driver on one goroutine over every shard of
// part, their state kept by res, resuming after waves waves. On one
// goroutine Visit and WaveEnd may fail: no peer waits at a barrier.
// Every update of the solve reaches res through Land, a shard's
// self-owned ones included, so res sees each write to a shard's state.
func HostSolve(part *Partition, res Residency, waves int) (*Result, error) {
	return solveHost(part, 1, hostBatch, res, waves, true)
}

// inCore is the residency of the in-core engines: every shard stays in
// core, so nothing is ever parked and nothing fails past Init.
type inCore struct {
	g    game.Game
	part *Partition
	kern Kernel
	ws   []*Worker
}

// solveInCore solves g over part with one goroutine per shard.
func solveInCore(g game.Game, part *Partition, k Kernel, batch int) (*Result, error) {
	res := &inCore{g: g, part: part, kern: k, ws: make([]*Worker, part.Workers())}
	return solveHost(part, part.Workers(), batch, res, 0, false)
}

func (c *inCore) Init(i int) (*Worker, error) {
	w, err := NewWorkerKernel(c.g, c.part, i, c.kern)
	if err != nil {
		return nil, err
	}
	c.ws[i] = w
	_, err = w.Init()
	return w, err
}

func (*inCore) Visit(order []int, fn func(int, []UpdateRun)) error {
	for _, i := range order {
		fn(i, nil)
	}
	return nil
}

func (c *inCore) Land(i int, runs []UpdateRun) {
	for _, r := range runs {
		c.ws[i].ApplyRun(r)
	}
}

func (*inCore) Parked(int) int          { return 0 }
func (*inCore) WaveEnd(int, bool) error { return nil }
func (*inCore) Drop(int)                {}

// hostShard is the driver's view of one shard, touched only by the
// goroutine holding it.
type hostShard struct {
	w *Worker
	// mark > 0 defers this wave's BeginWave to the shard's visit: the
	// first mark parked runs belong to the previous wave and land before
	// the begin, the rest were parked during this one and land after it.
	mark int
	// queued is the size of this wave's expansion queue, known once the
	// wave has begun on the shard.
	queued int
}

// waveMsg is one message on a goroutine's inbox: a batch of update runs
// for shard dst, or the end-of-wave signal from one sender with the
// number of positions it expanded (a flag, so no batch is mistaken for it).
type waveMsg struct {
	dst      int
	runs     []UpdateRun
	done     bool
	expanded int
}

// solveHost runs the driver with p goroutines combining batch runs per
// delivery. landSelf routes self-owned updates through emit and so
// through Land, where the in-core engines apply them inline.
func solveHost(part *Partition, p, batch int, res Residency, waves int, landSelf bool) (*Result, error) {
	n := part.Workers()
	shards := make([]hostShard, n)
	// Inboxes are buffered so that senders rarely block; post drains its
	// own inbox while blocked, so any buffer size is deadlock-free.
	inbox := make([]chan waveMsg, p)
	for i := range inbox {
		inbox[i] = make(chan waveMsg, 4*p)
	}
	// free is the shared pool of batch backing arrays; after warm-up,
	// waves move updates without allocating. Sized to hold every array
	// that can circulate at once (all inbox slots plus every goroutine's
	// partial per-destination batches), so recycles never drop.
	free := make(chan []UpdateRun, 4*p*p+p*n+p)
	bar := newWaveBarrier(p)
	// The result is allocated at quiescence by the first goroutine there:
	// held through the waves, its tables would raise the collector's heap
	// goal, and so the solve's peak footprint, by their size.
	var r *Result
	var once sync.Once
	result := func() *Result {
		once.Do(func() { r = NewResult(part, 0) })
		return r
	}
	phases := make([]ShardPhases, p)
	ds := make([]*hostWorker, p)
	for me := range ds {
		d := &hostWorker{me: me, p: p, res: res, shards: shards, inbox: inbox, free: free, bar: bar,
			holds: make([]bool, n), open: make([]UpdateRun, n), waves: waves, landSelf: landSelf, ph: &phases[me]}
		for i := me; i < n; i += p {
			d.own = append(d.own, i)
			d.holds[i] = true
		}
		d.buf = combine.MustNew(n, batch, d.deliver)
		d.buf.SetAlloc(d.alloc)
		d.emitFn, d.visitFn = d.emit, d.visit
		ds[me] = d
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for me, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[me] = d.solve(result)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r.Waves, r.Phases = ds[0].waves, phases
	for _, sh := range shards {
		r.collectStats(sh.w)
	}
	return r, nil
}

// hostWorker is one goroutine of the driver: the shards it holds, and
// the open runs and combining buffer its expansions leave through.
type hostWorker struct {
	me, p  int
	res    Residency
	shards []hostShard
	inbox  []chan waveMsg   // one per goroutine
	free   chan []UpdateRun // shared pool of recycled batch arrays
	bar    *waveBarrier

	own      []int  // shards held, ascending
	holds    []bool // by shard: whether it is held here
	landSelf bool   // self-owned updates go through emit and Land
	order    []int  // this pass's visit order
	buf      *combine.Buffer[UpdateRun]
	// open holds the run still being extended per destination shard
	// (Count == 0 when empty), so consecutive runs coalesce before they
	// reach the combining buffer.
	open []UpdateRun
	one  [1]UpdateRun // a run landed on its own

	emitFn   func(dst int, r UpdateRun)      // bound emit, allocated once
	visitFn  func(i int, parked []UpdateRun) // bound visit, allocated once
	done     int                             // end-of-wave signals seen this wave
	expanded int                             // positions expanded here this wave
	peers    int                             // positions the peers expanded this wave
	waves    int                             // waves of the solve, across resumes

	ph    *ShardPhases // this goroutine's clocks
	clock phaseClock
}

// solve drives the goroutine's shards through the whole analysis. The
// one barrier per pass sits between the begins and the expansion: once
// a goroutine has every peer's end-of-wave signal, all updates of the
// wave have reached it, and no peer expands the next wave before all
// have begun it. Passes alternate direction, so each starts on the
// shards the previous one left resident. A pass that expands nothing —
// every deferred shard began empty — only lands the last parked runs and
// is not a wave.
func (d *hostWorker) solve(result func() *Result) error {
	d.clock = startPhaseClock()
	var err error
	for _, i := range d.own {
		if d.shards[i].w, err = d.res.Init(i); err != nil {
			break
		}
	}
	d.clock.lap(&d.ph.Init)
	failed := 0
	if err != nil {
		failed = 1
	}
	failed = d.bar.sum(failed)
	d.clock.lap(&d.ph.Barrier)
	if failed > 0 {
		return err
	}
	reverse := false
	for ; ; reverse = !reverse {
		d.order = d.order[:0]
		for _, i := range d.own {
			sh := &d.shards[i]
			if sh.mark = d.res.Parked(i); sh.mark == 0 {
				sh.queued = sh.w.BeginWave()
			}
			if sh.mark+sh.queued > 0 {
				d.order = append(d.order, i)
			}
		}
		d.clock.lap(&d.ph.Expand)
		total := d.bar.sum(len(d.order))
		d.clock.lap(&d.ph.Barrier)
		if total == 0 {
			break
		}
		if reverse {
			slices.Reverse(d.order)
		}
		if err := d.wave(); err != nil {
			return err
		}
		if d.expanded+d.peers == 0 {
			continue
		}
		d.waves++
		if err := d.res.WaveEnd(d.waves, !reverse); err != nil {
			return err
		}
	}
	// Quiescence: resolve loops and fill the result shard by shard. A
	// multi-goroutine partition's groups are whole loop-bitset words, so
	// goroutines fill disjoint words.
	d.order = append(d.order[:0], d.own...)
	if reverse {
		slices.Reverse(d.order)
	}
	r := result()
	return d.res.Visit(d.order, func(i int, _ []UpdateRun) {
		w := d.shards[i].w
		w.ResolveLoops()
		d.clock.lap(&d.ph.Loops)
		w.Fill(r.Values)
		w.FillLoop(r.Loop)
		d.res.Drop(i)
		d.clock.lap(&d.ph.Fill)
	})
}

// wave runs the goroutine's part of one pass: visit the shards of the
// order, then flush the combined runs, signal end-of-wave to every peer,
// and consume the inbox until all peers have signalled.
func (d *hostWorker) wave() error {
	d.done, d.expanded, d.peers = 1, 0, 0 // our own signal needs no message
	if err := d.res.Visit(d.order, d.visitFn); err != nil {
		return err
	}
	for dst, o := range d.open {
		if o.Count > 0 {
			d.buf.Add(dst, o)
			d.open[dst].Count = 0
		}
	}
	d.buf.FlushAll()
	for g := range d.p {
		if g != d.me {
			d.post(g, waveMsg{done: true, expanded: d.expanded})
		}
	}
	d.clock.lap(&d.ph.Expand)
	for d.done < d.p {
		m := <-d.inbox[d.me]
		d.clock.lap(&d.ph.Barrier) // waiting on the slowest peer's wave
		d.apply(m)
	}
	return nil
}

// visit is one shard's turn in a pass: land the previous wave's parked
// runs and begin a deferred wave, land this wave's parked runs, and
// expand the queue — self-owned updates applied inline unless landSelf,
// the others through emit — draining the inbox between chunks.
func (d *hostWorker) visit(i int, parked []UpdateRun) {
	sh := &d.shards[i]
	if sh.mark > 0 {
		d.res.Land(i, parked[:sh.mark])
		sh.queued = sh.w.BeginWave()
	}
	d.res.Land(i, parked[sh.mark:])
	if sh.queued == 0 {
		return
	}
	for sh.w.expandRuns(expandChunk, d.landSelf, d.emitFn) > 0 {
		d.drain()
	}
	d.expanded += sh.queued
}

// emit routes one update run to shard dst. A run for a resident shard
// held here lands at once; any other is merged into the destination's
// open run when contiguous, and goes through the combining buffer.
func (d *hostWorker) emit(dst int, r UpdateRun) {
	if d.holds[dst] && d.shards[dst].w.StateResident() {
		d.one[0] = r
		d.res.Land(dst, d.one[:])
		return
	}
	o := &d.open[dst]
	if o.Count > 0 {
		if r.Base == o.Base+uint64(o.Count) && r.Value == o.Value {
			o.Count += r.Count
			return
		}
		d.buf.Add(dst, *o)
	}
	*o = r
}

// deliver hands one combined batch to shard dst: landed or parked when
// the shard is held here, posted to its goroutine otherwise.
func (d *hostWorker) deliver(dst int, b []UpdateRun) {
	if !d.holds[dst] {
		d.post(dst%d.p, waveMsg{dst: dst, runs: b})
		return
	}
	d.res.Land(dst, b)
	d.recycle(b)
}

// alloc hands the combining buffer a recycled batch array when one is
// available, allocating only while the pool warms up.
func (d *hostWorker) alloc() []UpdateRun {
	select {
	case b := <-d.free:
		return b
	default:
		return make([]UpdateRun, 0, d.buf.Capacity())
	}
}

// recycle returns a consumed batch array to the pool (dropping it if the
// pool is full — the array is then ordinary garbage).
func (d *hostWorker) recycle(b []UpdateRun) {
	select {
	case d.free <- b[:0]:
	default:
	}
}

// apply consumes one inbox message and charges it to the Apply clock;
// the caller has charged everything before it.
func (d *hostWorker) apply(m waveMsg) {
	if m.done {
		d.done++
		d.peers += m.expanded
		return
	}
	d.res.Land(m.dst, m.runs)
	d.recycle(m.runs)
	d.clock.lap(&d.ph.Apply)
}

// post delivers a message to goroutine g, draining our own inbox
// whenever g's is full. A blocked sender is therefore always a consuming
// receiver, which rules out send-cycle deadlock.
func (d *hostWorker) post(g int, m waveMsg) {
	select {
	case d.inbox[g] <- m:
		return
	default:
	}
	d.clock.lap(&d.ph.Expand)
	for {
		select {
		case d.inbox[g] <- m:
			d.clock.lap(&d.ph.Post)
			return
		case in := <-d.inbox[d.me]:
			d.clock.lap(&d.ph.Post)
			d.apply(in)
		}
	}
}

// drain consumes every message currently queued on our inbox.
func (d *hostWorker) drain() {
	for {
		select {
		case m := <-d.inbox[d.me]:
			d.clock.lap(&d.ph.Expand)
			d.apply(m)
		default:
			return
		}
	}
}

// waveBarrier is the reusable all-goroutines rendezvous between the
// phases of a solve. Every arrival contributes a count and every party
// leaves with the sum, which is how the goroutines agree that a pass is
// empty (or that an initialisation failed) without a coordinator.
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
