package ra

import (
	"fmt"
	"slices"

	"retrograde/internal/game"
)

// Update is one retrograde value message: "position Target's successor has
// been determined with value Value". The receiver (Target's owner) applies
// the negamax step, decrements Target's outstanding-successor counter, and
// may thereby finalize Target. Updates are 10 bytes on the simulated wire
// (8-byte index + 2-byte value); message combining packs many of them into
// one network message.
type Update struct {
	Target uint64
	Value  game.Value
}

// UpdateWireBytes is the size of one update on the simulated network.
const UpdateWireBytes = 10

// Packed per-position state. The three logical fields a worker tracks per
// position (current best value, outstanding internal successors, final
// flag) are packed into one uint32 so the propagation hot path reads and
// writes a single word instead of three parallel arrays:
//
//	bits  0..15  value   (game.Value, 16 bits; game.NoValue = 0xFFFF)
//	bits 16..30  counter (outstanding internal successors, 15 bits)
//	bit      31  final
//
// The value occupies the low bits so the common reads (Fill, Expand,
// Value) are a mask, not a shift. A final counter is dead, so it is the
// loop flag: only the loop rule finalizes without clearing it. Under both
// kernels, final ∧ counter ≠ 0 ⇔ loop-resolved.
const (
	stateValueMask  uint32 = 0xFFFF
	stateCountShift        = 16
	stateCountMask  uint32 = 0x7FFF
	stateFinalBit   uint32 = 1 << 31
)

// MaxSuccessors is the largest number of internal successors a single
// position may have under the packed scalar state layout (15-bit
// counter). Worker.Init returns a *game.CounterOverflowError beyond it
// instead of letting the counter wrap; every game in this repository has
// a branching factor orders of magnitude below.
const MaxSuccessors = int32(stateCountMask)

// The packed-counter width is a cross-package contract: game.Validate
// rejects games that overflow it without importing this package. This
// compiles only while the two constants agree.
var _ [1]struct{} = [game.MaxPackedSuccessors - MaxSuccessors + 1]struct{}{}

// StateBytesPerPosition is the resident analysis-time state per owned
// position in the in-core engines: one packed uint32.
const StateBytesPerPosition = 4

// packState assembles one packed state word.
func packState(v game.Value, counter int32, final bool) uint32 {
	s := uint32(v) | uint32(counter)<<stateCountShift
	if final {
		s |= stateFinalBit
	}
	return s
}

// stateValue extracts the value field of a packed state word.
func stateValue(s uint32) game.Value { return game.Value(s & stateValueMask) }

// stateCounter extracts the outstanding-successor counter.
func stateCounter(s uint32) int32 { return int32(s >> stateCountShift & stateCountMask) }

// stateFinal reports whether the final bit is set.
func stateFinal(s uint32) bool { return s&stateFinalBit != 0 }

// groupChunk is how many queue positions an expansion groups at a time
// before emitting the gathered remote updates in owner order. It bounds
// the grouping scratch while keeping runs long enough that consecutive
// combine-buffer appends hit the same destination batch.
const groupChunk = 512

// WorkerStats counts the work a shard performed, for load-balance metrics
// and for charging virtual time in the simulated cluster.
type WorkerStats struct {
	Positions      uint64 // positions owned
	InitFinal      uint64 // positions final directly after initialisation
	MovesGenerated uint64 // moves enumerated during initialisation
	Expanded       uint64 // finalized positions whose predecessors were generated
	PredsGenerated uint64 // predecessor edges generated (updates emitted)
	UpdatesApplied uint64 // updates applied to owned positions
	UpdatesStale   uint64 // updates for already-final positions (dropped)
	Finalized      uint64 // positions finalized by propagation
	LoopResolved   uint64 // positions resolved by the loop rule
}

// statsWordCount is the number of uint64 words WorkerStats serialises to.
const statsWordCount = 9

// Words returns the counters in their serialised order (declaration
// order), the layout every durable format stores them in.
func (s *WorkerStats) Words() [statsWordCount]uint64 {
	return [statsWordCount]uint64{
		s.Positions, s.InitFinal, s.MovesGenerated,
		s.Expanded, s.PredsGenerated, s.UpdatesApplied,
		s.UpdatesStale, s.Finalized, s.LoopResolved,
	}
}

// StatsFromWords is the inverse of WorkerStats.Words.
func StatsFromWords(w [statsWordCount]uint64) WorkerStats {
	return WorkerStats{
		Positions: w[0], InitFinal: w[1], MovesGenerated: w[2],
		Expanded: w[3], PredsGenerated: w[4], UpdatesApplied: w[5],
		UpdatesStale: w[6], Finalized: w[7], LoopResolved: w[8],
	}
}

// Worker is the per-shard state machine of retrograde analysis. It holds
// the shard's slice of the database and implements the two phases of the
// algorithm: initialisation (forward move generation to count successors
// and resolve immediate values) and propagation (applying updates from
// finalized successors). It performs no synchronisation or communication
// itself — drivers route the updates it emits.
type Worker struct {
	g    game.Game
	part *Partition
	me   int
	kern Kernel // resolved kernel; stable across DropState/RestoreState

	// Scalar kernel: state packs value, successor counter and final flag
	// per owned position (see packState); Apply touches exactly one word.
	// nil under the SWAR kernel.
	state []uint32

	// SWAR kernel: one lane byte per owned position (see swar.go); nil
	// under the scalar kernel.
	lane  []byte
	spec  game.LaneSpec
	negv  byte // lane negamax constant (spec.Neg)
	finAt int  // lane value that finalizes early, -1 for none

	// span is the length of the runs of consecutive locals that are also
	// consecutive globals: the partition group, or the whole shard when
	// this worker owns the entire space. The run generators amortise
	// decoding over such runs and Fill copies them whole.
	span uint64

	// gen holds the run generators Init, ExpandRuns and ResolveLoops walk
	// under either kernel: the game's batch implementations, or per-
	// position adapters for games without them.
	gen game.Runs

	queue []uint64 // local indices finalized in the previous wave, to expand
	next  []uint64 // local indices finalized in the current wave

	// Grouping scratch for remote edges, reused across expansion calls.
	runs     []Update // remote updates gathered for one grouping chunk
	runOwner []int32  // owner of each entry in runs
	runSort  []Update // counting-sort output (owner-grouped)
	ownerCnt []int32  // per-owner update count within a chunk
	ownerOff []int32  // per-owner placement cursor within a chunk

	Stats WorkerStats
}

// NewWorker creates the shard state for worker me of the partition under
// the scalar kernel — the configuration every wire-level engine
// (distributed, simulated, remote) uses.
func NewWorker(g game.Game, part *Partition, me int) *Worker {
	w, err := NewWorkerKernel(g, part, me, KernelScalar)
	if err != nil {
		panic(err) // KernelScalar construction cannot fail
	}
	return w
}

// NewWorkerKernel creates the shard state for worker me under the given
// kernel. KernelAuto resolves to SWAR for eligible games; KernelSWAR
// returns an error for ineligible ones.
func NewWorkerKernel(g game.Game, part *Partition, me int, k Kernel) (*Worker, error) {
	if me < 0 || me >= part.Workers() {
		panic(fmt.Sprintf("ra: worker %d out of range [0, %d)", me, part.Workers()))
	}
	if part.Size() != g.Size() {
		panic(fmt.Sprintf("ra: partition size %d != game size %d", part.Size(), g.Size()))
	}
	k, err := ResolveKernel(g, k)
	if err != nil {
		return nil, err
	}
	n := part.ShardSize(me)
	w := &Worker{
		g:     g,
		part:  part,
		me:    me,
		kern:  k,
		finAt: -1,
		span:  part.Group(),
		gen:   game.RunsOf(g),
	}
	w.Stats.Positions = n
	if p := part.Workers(); p > 1 {
		w.ownerCnt = make([]int32, p)
		w.ownerOff = make([]int32, p)
	} else {
		w.span = max(n, 1)
	}
	if k == KernelSWAR {
		w.spec, _ = LaneEligible(g)
		w.negv = byte(w.spec.Neg)
		w.finAt = w.spec.FinalizeAt
		w.lane = make([]byte, n)
		return w, nil
	}
	w.state = make([]uint32, n)
	for i := range w.state {
		w.state[i] = uint32(game.NoValue)
	}
	return w, nil
}

// Kernel reports which wave kernel the worker runs.
func (w *Worker) Kernel() Kernel { return w.kern }

// ID returns the worker's shard number.
func (w *Worker) ID() int { return w.me }

// Partition returns the partition the worker's shard was cut from.
func (w *Worker) Partition() *Partition { return w.part }

// ShardSize returns the number of positions the worker owns.
func (w *Worker) ShardSize() uint64 { return w.Stats.Positions }

// runLen returns the length of the generator run starting at local l0:
// to the end of its contiguity span or of the shard, at most laneChunk.
func (w *Worker) runLen(l0 uint64) uint64 {
	return min(w.span-l0%w.span, w.ShardSize()-l0, laneChunk)
}

// Init runs the initialisation phase over the shard: it walks the shard in
// runs, pulls every position's move summary from the run generator,
// records the outstanding-successor counters, resolves positions that are
// terminal or whose resolved moves already finalize them, and queues those
// for expansion. It returns the number of positions finalized, and a
// *game.CounterOverflowError if any position's internal branching exceeds
// the kernel's counter width.
func (w *Worker) Init() (uint64, error) {
	maxCnt := MaxSuccessors
	if w.lane != nil {
		maxCnt = laneMaxCnt
	}
	var finals uint64
	n := w.ShardSize()
	buf := make([]game.InitStat, min(n, laneChunk))
	for l0 := uint64(0); l0 < n; {
		base := w.part.Global(w.me, l0)
		st := buf[:w.runLen(l0)]
		w.gen.InitRun(base, len(st), st)
		for i, s := range st {
			w.Stats.MovesGenerated += uint64(s.Moves)
			if s.Internal > maxCnt {
				return finals, &game.CounterOverflowError{Game: w.g.Name(), Position: base + uint64(i), Internal: int64(s.Internal), Max: int64(maxCnt)}
			}
			if w.initState(l0+uint64(i), s) {
				finals++
			}
		}
		l0 += uint64(len(st))
	}
	w.Stats.InitFinal = finals
	return finals, nil
}

// initState packs one init summary into the kernel's state word and
// reports whether the position is final already (terminal, no internal
// successor, or a resolved move that cuts off: counter 0), queueing it.
func (w *Worker) initState(local uint64, s game.InitStat) bool {
	final := s.Internal == 0
	if w.lane != nil {
		v := byte(0)
		if s.Best != game.NoValue {
			v = byte(s.Best)
			final = final || int(s.Best) == w.finAt
		}
		w.lane[local] = v | byte(s.Internal)<<laneCntShift
		if final {
			w.lane[local] = v | laneFinalBit
		}
	} else {
		final = final || (s.Best != game.NoValue && w.g.Finalizes(s.Best))
		if final {
			s.Internal = 0
		}
		w.state[local] = packState(s.Best, s.Internal, final)
	}
	if final {
		w.next = append(w.next, local)
	}
	return final
}

// mustInit is Init for the engines that run initialisation inside
// simulation or protocol callbacks with no error path of their own. A
// counter overflow there is a game-construction bug (game.Validate and
// the in-core engines report it as an error), so it escalates.
func mustInit(w *Worker) uint64 {
	n, err := w.Init()
	if err != nil {
		panic(err)
	}
	return n
}

// Pending returns the number of positions finalized in the current wave
// and not yet expanded.
func (w *Worker) Pending() int { return len(w.next) + len(w.queue) }

// BeginWave promotes the positions finalized during the previous wave to
// the expansion queue of the new wave and returns how many there are.
// The queue is sorted by local index so ExpandRuns sees maximal
// consecutive runs; values and wave membership are order-independent, so
// this does not change results.
func (w *Worker) BeginWave() int {
	w.queue, w.next = w.next, w.queue[:0]
	slices.Sort(w.queue)
	return len(w.queue)
}

// Refill promotes newly finalized positions into the expansion queue when
// it has drained — the asynchronous engines' replacement for wave
// boundaries. It reports whether the queue has work afterwards.
func (w *Worker) Refill() bool {
	if len(w.queue) == 0 && len(w.next) > 0 {
		w.BeginWave()
	}
	return len(w.queue) > 0
}

// Expand pops up to limit finalized positions from the wave queue,
// generates their predecessors, and emits one update per predecessor edge
// through emit (including edges whose target the worker itself owns) —
// the wire engines' expansion, where an update is a message, so positions
// are expanded one by one in queue order. Within each grouping chunk,
// self-owned edges are emitted first and the remaining edges are emitted
// in owner-grouped runs so consecutive combine-buffer appends stay
// cache-local.
// It returns the number of positions expanded; 0 means the wave queue is
// empty. limit <= 0 expands the whole queue.
func (w *Worker) Expand(limit int, emit func(owner int, u Update)) int {
	return w.expand(limit, nil, emit)
}

// ExpandLocal is Expand with the self-delivery fast path: updates whose
// target the worker itself owns are handed to apply inline (typically
// the worker's own Apply) instead of being emitted, so they never round-
// trip through a combining buffer. emit may be nil when the worker owns
// the whole position space (single-shard partitions never emit).
func (w *Worker) ExpandLocal(limit int, apply func(Update), emit func(owner int, u Update)) int {
	if apply == nil {
		panic("ra: ExpandLocal needs an apply callback")
	}
	return w.expand(limit, apply, emit)
}

// pop takes up to limit positions (limit <= 0: all of them) off the front
// of the wave queue for expansion.
func (w *Worker) pop(limit int) []uint64 {
	if limit <= 0 || limit > len(w.queue) {
		limit = len(w.queue)
	}
	head := w.queue[:limit]
	w.queue = w.queue[limit:]
	w.Stats.Expanded += uint64(limit)
	return head
}

// expand is the per-position expansion loop behind Expand and
// ExpandLocal. Each position goes through the run generator as a run of
// one, so it is decoded and its un-moves verified the way ExpandRuns
// does it. A self-owned edge goes to apply when that is set and to
// emit(me) otherwise; remote edges are gathered per grouping chunk and
// flushed through emit one by one.
//
// The emitted sequence — queue order, and within a position the order
// the generator lists its predecessors — fixes which update fills which
// combining buffer when, so the simulated engines' message counts and
// virtual time depend on it. For awari it is the sequence the scalar
// Predecessors walk emitted, pinned by this package's and awari's tests.
func (w *Worker) expand(limit int, apply func(Update), emit func(owner int, u Update)) int {
	queue := w.pop(limit)
	single := w.part.Workers() == 1
	var v game.Value
	visit := func(_ int, preds []uint64) {
		w.Stats.PredsGenerated += uint64(len(preds))
		for _, q := range preds {
			u := Update{Target: q, Value: v}
			o := w.me
			if !single {
				o = w.part.Owner(q)
			}
			switch {
			case o != w.me:
				w.gather(o, u)
			case apply != nil:
				apply(u)
			default:
				emit(w.me, u)
			}
		}
	}
	for rest := queue; len(rest) > 0; {
		n := min(len(rest), groupChunk)
		for _, local := range rest[:n] {
			v = w.valueAt(local)
			w.gen.PredecessorsRun(w.part.Global(w.me, local), 1, visit)
		}
		w.flushRemote(emit, nil)
		rest = rest[n:]
	}
	return len(queue)
}

// ExpandRuns is the host-time engines' expansion: the sorted queue is cut
// into maximal runs of consecutive locals within one contiguity span (so
// the globals are consecutive too and the run generator decodes
// incrementally), self-owned updates are applied inline by the worker's
// own kernel and remote edges are emitted as owner-grouped, run-coalesced
// UpdateRuns — under either kernel, so a driver never asks which one it
// is running. emit may be nil when the worker owns the whole space.
func (w *Worker) ExpandRuns(limit int, emit func(owner int, r UpdateRun)) int {
	queue := w.pop(limit)
	single := w.part.Workers() == 1
	var l0 uint64
	visit := func(i int, preds []uint64) {
		w.Stats.PredsGenerated += uint64(len(preds))
		v := w.valueAt(l0 + uint64(i))
		for _, q := range preds {
			if single {
				w.applyAt(q, v)
			} else if o := w.part.Owner(q); o != w.me {
				w.gather(o, Update{Target: q, Value: v})
			} else {
				w.applyAt(w.part.Local(q), v)
			}
		}
	}
	for rest := queue; len(rest) > 0; {
		l0 = rest[0]
		k := 1
		for k < len(rest) && k < laneChunk && rest[k] == l0+uint64(k) && (l0+uint64(k))%w.span != 0 {
			k++
		}
		rest = rest[k:]
		w.gen.PredecessorsRun(w.part.Global(w.me, l0), k, visit)
		w.flushRemote(nil, emit)
	}
	return len(queue)
}

// gather holds back one edge to remote owner o for flushRemote.
func (w *Worker) gather(o int, u Update) {
	w.runs = append(w.runs, u)
	w.runOwner = append(w.runOwner, int32(o))
	w.ownerCnt[o]++
}

// flushRemote emits the remote edges gathered in runs grouped by owner
// (stable counting sort), so a combining buffer sees long same-destination
// append runs: one by one through emit, or — when emit is nil — through
// emitRuns, consecutive targets with equal values merged into one
// UpdateRun.
func (w *Worker) flushRemote(emit func(owner int, u Update), emitRuns func(owner int, r UpdateRun)) {
	if len(w.runs) == 0 {
		return
	}
	if cap(w.runSort) < len(w.runs) {
		w.runSort = make([]Update, len(w.runs))
	}
	sorted := w.runSort[:len(w.runs)]
	off := int32(0)
	for o, c := range w.ownerCnt {
		w.ownerOff[o] = off
		off += c
	}
	for i, u := range w.runs {
		o := w.runOwner[i]
		sorted[w.ownerOff[o]] = u
		w.ownerOff[o]++
	}
	w.runs = w.runs[:0]
	w.runOwner = w.runOwner[:0]
	for o, c := range w.ownerCnt {
		if c == 0 {
			continue
		}
		// After placement ownerOff[o] is the end of o's segment.
		seg := sorted[w.ownerOff[o]-c : w.ownerOff[o]]
		w.ownerCnt[o] = 0
		if emit != nil {
			for _, u := range seg {
				emit(o, u)
			}
			continue
		}
		run := UpdateRun{Base: seg[0].Target, Count: 1, Value: seg[0].Value}
		for _, u := range seg[1:] {
			if u.Target == run.Base+uint64(run.Count) && u.Value == run.Value {
				run.Count++
				continue
			}
			emitRuns(o, run)
			run = UpdateRun{Base: u.Target, Count: 1, Value: u.Value}
		}
		emitRuns(o, run)
	}
}

// Apply delivers one update to an owned position. Updates for positions
// already final are dropped (they are the tail of counter-based
// propagation after an early cutoff finalized the position).
func (w *Worker) Apply(u Update) {
	if w.part.Owner(u.Target) != w.me {
		panic(fmt.Sprintf("ra: worker %d received update for %d owned by %d", w.me, u.Target, w.part.Owner(u.Target)))
	}
	w.applyAt(w.part.Local(u.Target), u.Value)
}

// applyAt is Apply on a local index, by the worker's own kernel.
func (w *Worker) applyAt(local uint64, successor game.Value) {
	if w.lane != nil {
		// MoverValue(v) == Neg - v under the lane contract.
		w.applyLane(local, w.negv-byte(successor))
		return
	}
	w.applyState(local, successor)
}

// applyState is Apply's scalar-kernel step on a local index: negamax the
// successor value in, decrement the counter, finalize on exhaustion or
// early cutoff (clearing the counter, which is the loop flag once final).
func (w *Worker) applyState(local uint64, successor game.Value) {
	w.Stats.UpdatesApplied++
	s := w.state[local]
	if s&stateFinalBit != 0 {
		w.Stats.UpdatesStale++
		return
	}
	v := game.BetterOf(w.g, stateValue(s), w.g.MoverValue(successor))
	cnt := s >> stateCountShift & stateCountMask
	if cnt == 0 {
		panic(fmt.Sprintf("ra: worker %d position %d received more updates than successors", w.me, w.part.Global(w.me, local)))
	}
	cnt--
	if cnt == 0 || w.g.Finalizes(v) {
		w.state[local] = uint32(v) | stateFinalBit
		w.next = append(w.next, local)
		w.Stats.Finalized++
		return
	}
	w.state[local] = uint32(v) | cnt<<stateCountShift
}

// ResolveLoops assigns values to every still-undetermined position: the
// better of its best determined alternative and the game's loop value
// (eternal-play score). Called once, after global propagation quiesces.
// Runs that are final throughout are skipped; the others pull their loop
// values from the run generator in one call. It returns the number of
// positions resolved, which stay flagged in the state for FillLoop.
func (w *Worker) ResolveLoops() uint64 {
	n := w.ShardSize()
	var resolved uint64
	buf := make([]game.Value, min(n, laneChunk))
	for l0 := uint64(0); l0 < n; {
		lv := buf[:w.runLen(l0)]
		if w.anyOpen(l0, l0+uint64(len(lv))) {
			w.gen.LoopValuesRun(w.part.Global(w.me, l0), len(lv), lv)
			for i, v := range lv {
				if w.resolveLoop(l0+uint64(i), v) {
					resolved++
				}
			}
		}
		l0 += uint64(len(lv))
	}
	// Loop-resolved positions are not expanded: their predecessors are
	// themselves loop positions (anything determinable was determined),
	// so the next queue is cleared rather than propagated.
	w.next = w.next[:0]
	w.Stats.LoopResolved = resolved
	return resolved
}

// resolveLoop finalizes a local position with the better of its value and
// the loop value if it is still undetermined (keeping its counter, ≥ 1 when
// open, as the loop flag), and reports whether it was.
func (w *Worker) resolveLoop(local uint64, loop game.Value) bool {
	if w.lane != nil {
		s := w.lane[local]
		if s&laneFinalBit != 0 {
			return false
		}
		w.lane[local] = s&^laneValueMask | max(s&laneValueMask, byte(loop)) | laneFinalBit
		return true
	}
	s := w.state[local]
	if s&stateFinalBit != 0 {
		return false
	}
	w.state[local] = packState(game.BetterOf(w.g, stateValue(s), loop), stateCounter(s), true)
	return true
}

// anyOpen reports whether any of locals [l0, l1) is not final: after
// quiescence, whether the run holds part of the loop set.
func (w *Worker) anyOpen(l0, l1 uint64) bool {
	if w.lane != nil {
		return slices.ContainsFunc(w.lane[l0:l1], func(s byte) bool { return s&laneFinalBit == 0 })
	}
	return slices.ContainsFunc(w.state[l0:l1], func(s uint32) bool { return s&stateFinalBit == 0 })
}

// valueAt returns the current value of a local position under either
// kernel. Under the SWAR kernel "no value yet" reads as 0, which the
// lane contract makes order-equivalent to NoValue.
func (w *Worker) valueAt(local uint64) game.Value {
	if w.lane != nil {
		return game.Value(w.lane[local] & laneValueMask)
	}
	return stateValue(w.state[local])
}

// finalAt reports whether a local position is final.
func (w *Worker) finalAt(local uint64) bool {
	if w.lane != nil {
		return w.lane[local]&laneFinalBit != 0
	}
	return stateFinal(w.state[local])
}

// Value returns the final value of an owned position by global index.
// It panics if analysis has not finished (position not final).
func (w *Worker) Value(global uint64) game.Value {
	local := w.part.Local(global)
	if !w.finalAt(local) {
		panic(fmt.Sprintf("ra: position %d not final", global))
	}
	return w.valueAt(local)
}

// spanGlobal returns the global index of the first position of the k-th
// contiguous span of the shard (locals [k*span, (k+1)*span)).
func (w *Worker) spanGlobal(k uint64) uint64 {
	return (k*uint64(w.part.Workers()) + uint64(w.me)) * w.span
}

// Fill copies the shard's values into the full-space destination slice,
// which must have length Size of the game, one contiguous span at a time.
// Shards write disjoint elements, so the workers of one solve may Fill
// concurrently.
func (w *Worker) Fill(dst []game.Value) {
	n := w.ShardSize()
	for k, l0 := uint64(0), uint64(0); l0 < n; k, l0 = k+1, l0+w.span {
		l1 := min(l0+w.span, n)
		out := dst[w.spanGlobal(k):][:l1-l0]
		if w.lane != nil {
			for i, s := range w.lane[l0:l1] {
				out[i] = game.Value(s & laneValueMask)
			}
			continue
		}
		for i, s := range w.state[l0:l1] {
			out[i] = stateValue(s)
		}
	}
}

// loopAt reports whether a local position is loop-resolved: with the
// value masked off, final plus any counter bit lies above the final bit.
func (w *Worker) loopAt(local uint64) bool {
	if w.lane != nil {
		return w.lane[local]&^laneValueMask > laneFinalBit
	}
	return w.state[local]&^stateValueMask > stateFinalBit
}

// FillLoop sets the bit of every loop-resolved position (global index) in
// the bitset dst, which must have at least ceil(Size/64) words, one
// contiguous span at a time like Fill. Workers of one solve write
// disjoint words only when the partition group is a multiple of 64.
func (w *Worker) FillLoop(dst []uint64) {
	n := w.ShardSize()
	for k, l0 := uint64(0), uint64(0); l0 < n; k, l0 = k+1, l0+w.span {
		base := w.spanGlobal(k) - l0
		for l := l0; l < min(l0+w.span, n); l++ {
			if g := base + l; w.loopAt(l) {
				dst[g/64] |= 1 << (g % 64)
			}
		}
	}
}

// WorkingSetBytes reports the worker's analysis-time footprint: the packed
// state array (loop set included) plus queue capacity — the quantity the
// paper's ">600 MByte on a uniprocessor" claim is about.
func (w *Worker) WorkingSetBytes() uint64 {
	state := uint64(len(w.state)) * StateBytesPerPosition
	if w.lane != nil {
		state = uint64(len(w.lane)) * LaneBytesPerPosition
	}
	return state + uint64(cap(w.queue)+cap(w.next))*8
}
