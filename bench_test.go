// Benchmarks regenerating the paper's evaluation: one testing.B benchmark
// per table/figure of EXPERIMENTS.md (experiments run at Quick scale so
// `go test -bench=.` stays minutes, not hours; cmd/rabench runs the full
// Default scale). The last benchmarks are core micro-benchmarks of the
// engines themselves.
package retrograde_test

import (
	"io"
	"sync"
	"testing"

	"retrograde"
	"retrograde/internal/awari"
	"retrograde/internal/experiments"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
	"retrograde/internal/stats"
)

var benchEnv = sync.OnceValues(func() (*experiments.Env, error) {
	return experiments.NewEnv(experiments.Quick(), nil)
})

func env(b *testing.B) *experiments.Env {
	b.Helper()
	e, err := benchEnv()
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func renderDiscard(b *testing.B, t *stats.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if err := t.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE1DatabaseSizes regenerates the database-size/memory table
// (paper claim: huge internal memory; >600 MByte database).
func BenchmarkE1DatabaseSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		renderDiscard(b, experiments.E1DatabaseSizes(24), nil)
	}
}

// BenchmarkE2Sequential regenerates the uniprocessor baseline (paper:
// "one machine took 40 hours").
func BenchmarkE2Sequential(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.E2Sequential(e)
		renderDiscard(b, t, err)
	}
}

// BenchmarkE3Speedup regenerates the speedup-vs-processors figure
// (paper: speedup 48 on 64 processors).
func BenchmarkE3Speedup(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.E3Speedup(e)
		renderDiscard(b, t, err)
	}
}

// BenchmarkE4Combining regenerates the combining-buffer sweep (paper:
// "overhead can be reduced drastically using message combining").
func BenchmarkE4Combining(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.E4Combining(e)
		renderDiscard(b, t, err)
	}
}

// BenchmarkE4bAcrossProcs regenerates the naive-vs-combined table across
// processor counts.
func BenchmarkE4bAcrossProcs(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.E4bAcrossProcs(e)
		renderDiscard(b, t, err)
	}
}

// BenchmarkE5Traffic regenerates the traffic breakdown.
func BenchmarkE5Traffic(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.E5Traffic(e)
		renderDiscard(b, t, err)
	}
}

// BenchmarkE6Memory regenerates the memory-scaling tables (paper: the
// >600 MByte database fits once distributed).
func BenchmarkE6Memory(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.E6Memory(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			renderDiscard(b, t, nil)
		}
	}
}

// BenchmarkA1Partition regenerates the partition-map ablation.
func BenchmarkA1Partition(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.A1Partition(e)
		renderDiscard(b, t, err)
	}
}

// BenchmarkA2Interconnect regenerates the Ethernet-vs-crossbar ablation.
func BenchmarkA2Interconnect(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.A2Interconnect(e)
		renderDiscard(b, t, err)
	}
}

// BenchmarkA3Termination regenerates the wave/termination protocol table.
func BenchmarkA3Termination(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.A3Termination(e)
		renderDiscard(b, t, err)
	}
}

// Engine micro-benchmarks on the same 7-stone awari rung.

func benchLadder(b *testing.B) *ladder.Ladder {
	b.Helper()
	e := env(b)
	return e.Ladder
}

// BenchmarkEngineSequential measures the sequential engine end to end.
func BenchmarkEngineSequential(b *testing.B) {
	l := benchLadder(b)
	slice := l.Slice(7)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ra.SolveSequential(slice)
	}
	b.ReportMetric(float64(slice.Size()), "positions/op")
}

// BenchmarkEngineConcurrent measures the goroutine engine end to end.
func BenchmarkEngineConcurrent(b *testing.B) {
	l := benchLadder(b)
	slice := l.Slice(7)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (ra.Concurrent{}).Solve(slice); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDistributed64 measures the 64-node simulated run
// (reported time is host wall time; the interesting output is virtual).
func BenchmarkEngineDistributed64(b *testing.B) {
	l := benchLadder(b)
	slice := l.Slice(7)
	b.ResetTimer()
	b.ReportAllocs()
	var virtual float64
	for i := 0; i < b.N; i++ {
		r, err := (ra.Distributed{Workers: 64}).Solve(slice)
		if err != nil {
			b.Fatal(err)
		}
		virtual = r.Sim.Duration.Seconds()
	}
	b.ReportMetric(virtual, "virtual-s/op")
}

// BenchmarkPublicLadderBuild measures the documented quickstart path.
func BenchmarkPublicLadderBuild(b *testing.B) {
	cfg := retrograde.LadderConfig{Rules: awari.Standard, Loop: awari.LoopOwnSide}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := retrograde.BuildLadder(cfg, 5, retrograde.Concurrent{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkV1Generality regenerates the four-game oracle table.
func BenchmarkV1Generality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.V1Generality(8)
		renderDiscard(b, t, err)
	}
}

// BenchmarkE8RealWire regenerates the real-TCP combining table.
func BenchmarkE8RealWire(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.E8RealWire(e)
		renderDiscard(b, t, err)
	}
}

// BenchmarkA4Asynchrony regenerates the sync-vs-async protocol ablation.
func BenchmarkA4Asynchrony(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.A4Asynchrony(e)
		renderDiscard(b, t, err)
	}
}

// BenchmarkE9Symmetry regenerates the KRK symmetry-reduction table.
func BenchmarkE9Symmetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E9Symmetry()
		renderDiscard(b, t, err)
	}
}
