package sim

import (
	"math/rand"
	"slices"
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.50us"},
		{2500 * Microsecond, "2.50ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Errorf("Seconds() = %v", s)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	k := New()
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 30 {
		t.Errorf("Now() = %v, want 30", k.Now())
	}
	if k.Events() != 3 {
		t.Errorf("Events() = %d, want 3", k.Events())
	}
}

func TestTiesRunInSchedulingOrder(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestEventsCanScheduleMoreEvents(t *testing.T) {
	k := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			k.After(7, tick)
		}
	}
	k.At(0, tick)
	end := k.Run()
	if count != 100 {
		t.Errorf("count = %d", count)
	}
	if end != 99*7 {
		t.Errorf("end = %v, want %v", end, Time(99*7))
	}
}

func TestAfterAndNow(t *testing.T) {
	k := New()
	var at Time
	k.After(42, func() { at = k.Now() })
	k.Run()
	if at != 42 {
		t.Errorf("event ran at %v, want 42", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()

	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	k := New()
	if k.Step() {
		t.Error("Step on empty kernel returned true")
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	var ran []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		k.At(at, func() { ran = append(ran, at) })
	}
	remaining := k.RunUntil(20)
	if !remaining {
		t.Error("RunUntil reported no remaining events")
	}
	if len(ran) != 2 {
		t.Errorf("ran %v, want events at 5 and 15", ran)
	}
	if k.Now() != 20 {
		t.Errorf("Now() = %v, want 20", k.Now())
	}
	if k.RunUntil(100) {
		t.Error("RunUntil(100) reported remaining events")
	}
	if k.Now() != 100 {
		t.Errorf("Now() = %v, want 100", k.Now())
	}
}

// TestDeterminism runs an event cascade twice and requires identical
// traces — the property the distributed engine's reproducibility rests on.
func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := New()
		var trace []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, k.Now())
			if depth < 6 {
				k.After(Time(depth+1), func() { spawn(depth + 1) })
				k.After(Time(depth+2), func() { spawn(depth + 1) })
			}
		}
		k.At(0, func() { spawn(0) })
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestHeapPopsInTimeSeqOrder drives the event heap with a seeded random
// schedule, events scheduling further events included, and requires the
// pops in (at, seq) order: by time, and at equal times in the order the
// events were scheduled. Times are drawn from a narrow range so ties are
// common.
func TestHeapPopsInTimeSeqOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		type stamp struct {
			at  Time
			seq int
		}
		var scheduled, popped []stamp
		var schedule func(depth int)
		schedule = func(depth int) {
			s := stamp{at: k.Now() + Time(rng.Intn(8)), seq: len(scheduled)}
			scheduled = append(scheduled, s)
			k.At(s.at, func() {
				popped = append(popped, s)
				for range rng.Intn(3) {
					if depth < 8 {
						schedule(depth + 1)
					}
				}
			})
		}
		for range 200 {
			schedule(0)
		}
		k.Run()
		if len(popped) != len(scheduled) {
			t.Fatalf("seed %d: %d events popped, %d scheduled", seed, len(popped), len(scheduled))
		}
		if !slices.IsSortedFunc(popped, func(a, b stamp) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			return a.seq - b.seq
		}) {
			t.Fatalf("seed %d: events popped out of (at, seq) order: %v", seed, popped)
		}
		if int(k.Events()) != len(scheduled) {
			t.Fatalf("seed %d: Events() = %d, want %d", seed, k.Events(), len(scheduled))
		}
	}
}

func BenchmarkKernelEvents(b *testing.B) {
	k := New()
	b.ReportAllocs()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.After(1, tick)
		}
	}
	k.At(0, tick)
	k.Run()
}
