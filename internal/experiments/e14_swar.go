package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"retrograde/internal/ra"
	"retrograde/internal/stats"
)

// E14SWAR pins the bit-parallel wave kernel against the scalar baseline
// of E10: for each in-core engine shape, one full solve of the headline
// rung under each kernel, reported as positions per second per core and
// resident state bytes per position. Both kernels walk the same run
// generators, so the rates are expected to agree and the bytes to differ
// 4×. The two kernels must produce bit-identical databases (same values,
// same loop sets) — the table carries their common checksum, and the
// experiment fails outright on a mismatch or on a solve that reports a
// kernel other than the one it was asked for.
func E14SWAR(env *Env) (*stats.Table, error) {
	slice := env.Headline()
	t := stats.NewTable(
		fmt.Sprintf("E14: bit-parallel (SWAR) wave kernel vs scalar baseline (awari-%d, %s positions)",
			env.Scale.Stones, stats.Count(slice.Size())),
		"engine", "kernel", "wall ms", "pos/s/core", "speedup", "state B/pos")
	t.Kernel = "scalar+swar"
	cores := runtime.GOMAXPROCS(0)
	shapes := []struct {
		name  string
		cores int
		mk    func(k ra.Kernel) ra.Engine
	}{
		{"sequential", 1, func(k ra.Kernel) ra.Engine {
			return ra.Sequential{Config: ra.Config{Kernel: k}}
		}},
		{fmt.Sprintf("concurrent/%d", cores), cores, func(k ra.Kernel) ra.Engine {
			return ra.Concurrent{Config: ra.Config{Kernel: k}}
		}},
	}
	for _, shape := range shapes {
		var scalarRate float64
		var scalarSum uint64
		for _, k := range []ra.Kernel{ra.KernelScalar, ra.KernelSWAR} {
			e := shape.mk(k)
			var res *ra.Result
			var err error
			best := time.Duration(1<<63 - 1)
			for trial := 0; trial < 3; trial++ {
				d := wallTime(func() { res, err = e.Solve(slice) })
				if err != nil {
					return nil, fmt.Errorf("%s %v: %w", shape.name, k, err)
				}
				if d < best {
					best = d
				}
			}
			if res.Kernel != k.String() {
				return nil, fmt.Errorf("%s: asked for kernel %v, got %q", shape.name, k, res.Kernel)
			}
			sum := dbChecksum(res)
			rate := float64(slice.Size()) / best.Seconds() / float64(shape.cores)
			switch k {
			case ra.KernelScalar:
				scalarRate, scalarSum = rate, sum
			default:
				if sum != scalarSum {
					return nil, fmt.Errorf("%s: scalar and swar databases differ (checksums %016x vs %016x)",
						shape.name, scalarSum, sum)
				}
			}
			stateBytes, err := ra.InCoreStateBytes(slice, k)
			if err != nil {
				return nil, err
			}
			t.Row(shape.name, k.String(),
				best.Milliseconds(),
				stats.Count(uint64(rate)),
				rate/scalarRate,
				stateBytes/slice.Size())
		}
		t.Note("%s: scalar and swar databases bit-identical (checksum %016x)", shape.name, scalarSum)
	}
	t.Note("wall ms is the best of 3 solves; pos/s/core divides by the engine's core count")
	t.Note("SWAR lanes pack 8 positions per uint64 (4-bit value, 3-bit counter, final bit per byte)")
	return t, nil
}

// dbChecksum folds a solved database (values and loop bitset) into one
// FNV-1a word, so bit-identity between kernels is checkable at a glance.
func dbChecksum(r *ra.Result) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range r.Values {
		h = (h ^ uint64(v)) * prime
	}
	for _, w := range r.Loop {
		h = (h ^ w) * prime
	}
	return h
}

// E14Smoke is the CI guard: it builds a quick-scale environment, runs the
// E14 comparison and renders the table to w. It fails when the two
// kernels' databases differ or a solve ran under the wrong kernel; the
// kernels share their generators, so their relative speed is reported,
// not gated.
func E14Smoke(s Scale, w io.Writer) error {
	env, err := NewEnv(s, nil)
	if err != nil {
		return err
	}
	t, err := E14SWAR(env)
	if err != nil {
		return err
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "E14 smoke OK: scalar and swar databases bit-identical on every engine shape")
	return nil
}
