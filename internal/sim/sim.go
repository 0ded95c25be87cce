// Package sim is a deterministic discrete-event simulation kernel.
//
// The distributed retrograde-analysis engine runs on a simulated cluster
// so that the paper's 64-processor Ethernet measurements can be reproduced
// faithfully on any host: computation and communication charge *virtual*
// time according to a cost model, and the kernel executes events in
// virtual-time order. Execution is single-threaded and fully
// deterministic: events at equal times run in scheduling order.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds.
type Time int64

// Convenient virtual durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a virtual time in engineering units.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.2fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a binary min-heap of events ordered by (at, seq). seq is
// unique, so the order is strict and total: the pop order is fixed by the
// schedule alone, whatever the heap's internal layout. It is typed rather
// than a container/heap so no event is boxed into an interface.
type eventHeap []event

// before reports whether a pops ahead of b.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push adds e, sifting it up from the last slot.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(&e, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// pop removes and returns the earliest event: the last event takes the
// root's place and sifts down.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q[n] = event{} // drop the closure reference
	q = q[:n]
	*h = q
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&q[r], &q[c]) {
			c = r
		}
		if !before(&q[c], &e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = e
	}
	return top
}

// Kernel is the event scheduler. The zero value is not usable; call New.
type Kernel struct {
	now     Time
	seq     uint64
	events  eventHeap
	stepped uint64
}

// New returns a kernel at virtual time zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.stepped }

// At schedules fn to run at virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	k.seq++
	k.events.push(event{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d nanoseconds of virtual time from now.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now+d, fn)
}

// Step executes the earliest pending event, advancing virtual time to it.
// It reports whether an event was executed.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.events.pop()
	k.now = e.at
	k.stepped++
	e.fn()
	return true
}

// Run executes events until none remain and returns the final time.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}

// RunUntil executes events with time <= deadline and returns whether any
// events remain.
func (k *Kernel) RunUntil(deadline Time) bool {
	for len(k.events) > 0 && k.events[0].at <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return len(k.events) > 0
}
