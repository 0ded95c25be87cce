package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/oocore"
	"retrograde/internal/ra"
	"retrograde/internal/remote"
)

// awariConfig is the one game configuration every workload uses.
var awariConfig = ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}

var scalarEngine = ra.Sequential{Config: ra.Config{Kernel: ra.KernelScalar}}

// run is the state of one run of one workload.
type run struct {
	o   options
	sz  sizes
	res *result
	tr  *tracer // nil in an untraced run
	dir string  // scratch directory, removed when the run ends
}

func runWorkload(o options) (*result, error) {
	r := &run{o: o, sz: scales[o.scale], res: &result{
		Schema:    schemaVersion,
		Workload:  o.workload,
		Scale:     o.scale,
		Traced:    o.trace == 1,
		Seed:      o.seed,
		Seconds:   o.seconds,
		Host:      fingerprint(),
		Constants: map[string]metric{},
		Metrics:   map[string]metric{},
		Samples:   map[string]summary{},
	}}
	var err error
	if r.dir, err = os.MkdirTemp(o.outDir, "scratch-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	if r.res.Traced {
		r.tr = newTracer()
	}
	r.res.constant("rung", float64(r.sz.Rung), "stones")
	r.res.constant("setups", float64(r.sz.Setups), "count")

	err = fmt.Errorf("unknown workload %q (see -spec)", o.workload)
	for _, w := range workloads {
		if w.Name == o.workload {
			err = w.run(r)
		}
	}
	if err != nil {
		return nil, err
	}
	return r.res, r.finish()
}

// finish completes the result: peak RSS, zeros for the layers a traced
// workload bypasses, the trace file, and the verdict.
func (r *run) finish() error {
	res := r.res
	if res.Traced {
		for _, s := range perLayer {
			if _, ok := res.Metrics[s.Name]; !ok {
				res.set(s.Name, 0)
			}
		}
		res.SelfTimeS = r.tr.selfTime()
		if err := r.tr.writeJSONL(filepath.Join(r.o.outDir, "trace-"+res.Workload+".jsonl")); err != nil {
			return err
		}
	} else {
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		res.set("peak_rss_mib", rss)
		for _, name := range reported(false) {
			if _, ok := res.Metrics[name]; !ok {
				return fmt.Errorf("workload %s did not report %s", res.Workload, name)
			}
		}
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	return nil
}

// setups repeats the workload's set-up and reports the fast quartile as
// setup_s, so work moved into set-up shows. Each repeat replaces the previous one's
// product; a traced run sets up once.
func (r *run) setups(setup func() error) error {
	n := r.sz.Setups
	if r.tr != nil {
		n = 1
	}
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.res.set("setup_s", r.res.samples("setup_s", secs).Q1)
	return nil
}

// timedReps repeats unit until budget seconds are used, at least minReps
// times. unit times itself, so that checking its output stays outside
// the measurement, and reports whether the output was correct.
func (r *run) timedReps(budget float64, minReps int, unit func() (time.Duration, bool, error)) ([]float64, error) {
	var secs []float64
	start := time.Now()
	for {
		runtime.GC()
		d, ok, err := unit()
		if err != nil {
			return nil, err
		}
		r.res.count(ok)
		secs = append(secs, d.Seconds())
		// Stop once another unit would overshoot the budget by more
		// than half of itself.
		if len(secs) >= minReps && time.Since(start).Seconds()+d.Seconds()/2 > budget {
			return secs, nil
		}
	}
}

// solveWorkload runs a workload whose timed unit is a solve of the stated
// number of positions. unit receives the tracer (nil when untraced) and
// times itself. An untraced run reports unit_ms and throughput; a traced
// run takes a short untraced baseline, runs one traced unit, reports
// trace_overhead_share and calls layers with the baseline's fast quartile.
func (r *run) solveWorkload(positions uint64, unit func(tr *tracer) (time.Duration, bool, error), layers func(baseS float64) error) error {
	r.res.constant("positions", float64(positions), "count")
	untraced := func() (time.Duration, bool, error) { return unit(nil) }
	if r.tr == nil {
		secs, err := r.timedReps(r.o.seconds, r.sz.MinReps, untraced)
		if err != nil {
			return err
		}
		ms := make([]float64, len(secs))
		for i, s := range secs {
			ms[i] = s * 1000
		}
		fast := r.res.samples("unit_ms", ms).Q1
		r.res.set("unit_ms", fast)
		r.res.set("throughput", float64(positions)/(fast/1000))
		return nil
	}
	secs, err := r.timedReps(r.o.seconds/4, min(2, r.sz.MinReps), untraced)
	if err != nil {
		return err
	}
	base := r.res.samples("untraced_unit_s", secs).Q1
	runtime.GC()
	r.tr.nextRun()
	d, ok, err := unit(r.tr)
	if err != nil {
		return err
	}
	r.res.count(ok)
	r.res.constant("traced_unit_s", d.Seconds(), "s")
	r.res.set("trace_overhead_share", d.Seconds()/base-1)
	return layers(base)
}

// timed runs f under a span and returns its wall time in seconds.
func (r *run) timed(name string, f func() error) (float64, error) {
	runtime.GC()
	end := r.tr.begin(name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0).Seconds()
	end()
	return d, err
}

// substrate builds the rungs below top with the default engine — the
// "all smaller rungs precomputed" of the paper's methodology.
func substrate(top int) (*ladder.Ladder, error) {
	return ladder.Build(awariConfig, top-1, ra.Sequential{}, nil)
}

// tracedSequential is ra.Sequential with the harness driving the worker's
// public functions itself, exactly as ra.solveSequential does, and a span
// around each call. It also sums the work counters over the rungs it
// solves.
type tracedSequential struct {
	tr     *tracer
	kernel ra.Kernel
	totals *raTotals
}

type raTotals struct {
	waves      int
	workers    []ra.WorkerStats // one per rung solved
	stateBytes uint64           // of the largest rung
}

func (e tracedSequential) Name() string { return "sequential(traced)" }

func (e tracedSequential) Solve(g game.Game) (*ra.Result, error) {
	defer e.tr.begin("ra.solve")()
	end := e.tr.begin("ra.new_worker")
	w, err := ra.NewWorkerKernel(g, ra.Cyclic(g.Size(), 1), 0, e.kernel)
	end()
	if err != nil {
		return nil, err
	}
	end = e.tr.begin("ra.init")
	_, err = w.Init()
	end()
	if err != nil {
		return nil, err
	}
	swar := w.Kernel() == ra.KernelSWAR
	waves := 0
	for {
		end = e.tr.begin("ra.wave")
		n := w.BeginWave()
		if n > 0 {
			waves++
			if swar {
				w.ExpandRuns(0, nil)
			} else {
				w.ExpandLocal(0, w.Apply, nil)
			}
		}
		end()
		if n == 0 {
			break
		}
	}
	end = e.tr.begin("ra.resolve_loops")
	loops := w.ResolveLoops()
	end()
	end = e.tr.begin("ra.fill")
	values := make([]game.Value, g.Size())
	w.Fill(values)
	loopBits := make([]uint64, (g.Size()+63)/64)
	w.FillLoop(loopBits)
	end()

	t := e.totals
	t.waves += waves
	t.stateBytes = max(t.stateBytes, w.StateBytes())
	t.workers = append(t.workers, w.Stats)
	return &ra.Result{
		Values:        values,
		Waves:         waves,
		LoopPositions: loops,
		Loop:          loopBits,
		Workers:       []ra.WorkerStats{w.Stats},
		Kernel:        w.Kernel().String(),
	}, nil
}

// reportRA turns the spans and counters of traced sequential solves into
// the ra.* metrics. sweepS is the time the game's generator alone needs
// for the same positions.
func (r *run) reportRA(t *raTotals, sweepS float64) {
	res, tr := r.res, r.tr
	initS, waveS := tr.total("ra.init"), tr.total("ra.wave")
	loopS, fillS := tr.total("ra.resolve_loops"), tr.total("ra.fill")
	res.set("ra.init_s", initS)
	res.set("ra.expand_s", waveS)
	res.set("ra.resolve_loops_s", loopS)
	res.set("ra.fill_s", fillS)
	res.set("ra.init_self_s", initS-sweepS)
	res.set("ra.attributed_share", (initS+waveS+loopS+fillS)/tr.total("ra.solve"))
	stats := (&ra.Result{Workers: t.workers}).Totals()
	res.set("ra.waves", float64(t.waves))
	res.set("ra.init_final", float64(stats.InitFinal))
	res.set("ra.expanded", float64(stats.Expanded))
	res.set("ra.preds_generated", float64(stats.PredsGenerated))
	res.set("ra.updates_applied", float64(stats.UpdatesApplied))
	res.set("ra.updates_stale", float64(stats.UpdatesStale))
	res.set("ra.loop_resolved", float64(stats.LoopResolved))
	res.set("ra.state_bytes", float64(t.stateBytes))
}

// ladderSWAR: the timed unit is ladder.Build over rungs 0..Rung with the
// default Sequential engine (KernelAuto resolves to SWAR).
func (r *run) ladderSWAR() error {
	top := r.sz.Rung
	// Set-up is one untimed build: it grows the heap to its working size,
	// so the first timed build is not charged for page faults.
	if err := r.setups(func() error {
		_, err := ladder.Build(awariConfig, top, ra.Sequential{}, nil)
		return err
	}); err != nil {
		return err
	}
	var positions uint64
	for n := 0; n <= top; n++ {
		positions += awari.Size(n)
	}
	var (
		totals raTotals
		last   *ladder.Ladder
		rungS  = make([]float64, top+1)
	)
	unit := func(tr *tracer) (time.Duration, bool, error) {
		var engine ra.Engine = ra.Sequential{}
		var onRung func(int, *ra.Result)
		if tr != nil {
			engine = tracedSequential{tr, ra.KernelAuto, &totals}
			prev := time.Now()
			onRung = func(n int, _ *ra.Result) {
				now := time.Now()
				rungS[n], prev = now.Sub(prev).Seconds(), now
			}
		}
		end := tr.begin("ladder.build")
		t0 := time.Now()
		l, err := ladder.Build(awariConfig, top, engine, onRung)
		d := time.Since(t0)
		end()
		if err != nil {
			return 0, false, err
		}
		last = l
		return d, ladderMatchesGolden(l), nil
	}
	return r.solveWorkload(positions, unit, func(float64) error {
		for i, name := range []string{"ladder.rung_s.top", "ladder.rung_s.top-1", "ladder.rung_s.top-2", "ladder.rung_s.top-3"} {
			if top-i >= 0 {
				r.res.set(name, rungS[top-i])
			}
		}
		var sweep runSweep
		for n := 0; n <= top; n++ {
			sweep.add(sweepRuns(last.Slice(n)))
		}
		sweep.report(r.res, positions)
		r.reportRA(&totals, sweep.initS)
		return nil
	})
}

// rungScalar: the timed unit solves rung Rung with the scalar kernel on a
// prebuilt ladder.
func (r *run) rungScalar() error {
	top := r.sz.Rung
	var l *ladder.Ladder
	if err := r.setups(func() (err error) {
		l, err = substrate(top)
		return err
	}); err != nil {
		return err
	}
	var totals raTotals
	unit := func(tr *tracer) (time.Duration, bool, error) {
		var engine ra.Engine = scalarEngine
		if tr != nil {
			engine = tracedSequential{tr, ra.KernelScalar, &totals}
		}
		t0 := time.Now()
		res, err := l.SolveRung(top, engine)
		d := time.Since(t0)
		if err != nil {
			return 0, false, err
		}
		return d, matchesGolden(top, res), nil
	}
	return r.solveWorkload(awari.Size(top), unit, func(float64) error {
		s := l.Slice(top)
		sweep := sweepScalar(s)
		sweep.report(r.res)
		rank, unrank := indexProbe(top, r.o.seed)
		r.res.set("index.rank_ns", rank)
		r.res.set("index.unrank_ns", unrank)
		r.reportRA(&totals, sweep.movesNS*float64(s.Size())/1e9)
		return nil
	})
}

// rungConc2: the timed unit solves rung Rung with Concurrent{Workers: 2}.
func (r *run) rungConc2() error {
	top := r.sz.Rung
	var l *ladder.Ladder
	if err := r.setups(func() (err error) {
		l, err = substrate(top)
		return err
	}); err != nil {
		return err
	}
	r.res.constant("workers", 2, "count")
	var lastRes *ra.Result
	unit := func(tr *tracer) (time.Duration, bool, error) {
		end := tr.begin("ra.concurrent.solve")
		t0 := time.Now()
		res, err := l.SolveRung(top, ra.Concurrent{Workers: 2})
		d := time.Since(t0)
		end()
		if err != nil {
			return 0, false, err
		}
		lastRes = res
		return d, matchesGolden(top, res), nil
	}
	return r.solveWorkload(awari.Size(top), unit, func(baseS float64) error {
		solve := func(span string, rung int, engine ra.Engine) (float64, error) {
			return r.timed(span, func() error {
				res, err := l.SolveRung(rung, engine)
				if err == nil {
					r.res.count(matchesGolden(rung, res))
				}
				return err
			})
		}
		seqS, err := solve("ra.sequential.solve", top, ra.Sequential{})
		if err != nil {
			return err
		}
		p1S, err := solve("ra.concurrent_p1.solve", top, ra.Concurrent{Workers: 1})
		if err != nil {
			return err
		}
		tcpS, err := solve("remote.tcp2.solve", r.sz.SimRung, remote.Engine{Workers: 2})
		if err != nil {
			return err
		}
		r.res.constant("sequential_solve_s", seqS, "s")
		r.res.set("ra.conc_speedup", seqS/baseS)
		r.res.set("ra.conc_p1_s", p1S)
		r.res.set("remote.tcp2_solve_s", tcpS)
		var maxExp, sumExp uint64
		for _, w := range lastRes.Workers {
			maxExp = max(maxExp, w.Expanded)
			sumExp += w.Expanded
		}
		r.res.set("ra.shard_imbalance", float64(maxExp)*float64(len(lastRes.Workers))/float64(sumExp))
		r.res.set("combine.add_ns", combineProbe())
		return nil
	})
}

// oocoreCap25: the timed unit solves rung Rung out of core with resident
// block state capped at a quarter of the in-core footprint.
func (r *run) oocoreCap25() error {
	top := r.sz.Rung
	var l *ladder.Ladder
	if err := r.setups(func() (err error) {
		l, err = substrate(top)
		return err
	}); err != nil {
		return err
	}
	g := l.Slice(top)
	inCore, err := ra.InCoreStateBytes(g, ra.KernelAuto)
	if err != nil {
		return err
	}
	r.res.constant("in_core_state_bytes", float64(inCore), "B")
	r.res.constant("mem_limit_bytes", float64(inCore/4), "B")
	spillDirs := 0
	solve := func(e oocore.Engine) (time.Duration, oocore.SpillStats, bool, error) {
		spillDirs++
		e.Dir = filepath.Join(r.dir, fmt.Sprintf("spill-%d", spillDirs))
		t0 := time.Now()
		res, st, err := e.SolveDetailed(g)
		d := time.Since(t0)
		if err != nil {
			return 0, st, false, err
		}
		return d, st, matchesGolden(top, res), os.RemoveAll(e.Dir)
	}
	var stats oocore.SpillStats
	unit := func(tr *tracer) (time.Duration, bool, error) {
		end := tr.begin("oocore.solve")
		d, st, ok, err := solve(oocore.Engine{MemLimit: inCore / 4})
		end()
		stats = st
		return d, ok, err
	}
	return r.solveWorkload(g.Size(), unit, func(baseS float64) error {
		res := r.res
		res.set("oocore.blocks", float64(stats.Blocks))
		res.set("oocore.spilled", float64(stats.Spilled))
		res.set("oocore.reloaded", float64(stats.Reloaded))
		res.set("oocore.spill_bytes_written", float64(stats.SpillBytesWritten))
		res.set("oocore.spill_bytes_read", float64(stats.SpillBytesRead))
		res.set("oocore.peak_resident_bytes", float64(stats.PeakResidentBytes))
		res.set("oocore.peak_pending_runs", float64(stats.PeakPendingRuns))
		res.set("oocore.checkpoints", float64(stats.Checkpoints))
		if stats.Reloaded > 0 {
			res.set("oocore.prefetch_hit_share", float64(stats.PrefetchHits)/float64(stats.Reloaded))
		}
		res.set("oocore.write_stalls", float64(stats.WriteStalls))

		seqS, err := r.timed("ra.sequential.solve", func() error {
			sres, err := ra.Sequential{}.Solve(g)
			if err == nil {
				res.count(matchesGolden(top, sres))
			}
			return err
		})
		if err != nil {
			return err
		}
		control := func(span string, e oocore.Engine) (float64, error) {
			return r.timed(span, func() error {
				_, _, ok, err := solve(e)
				res.count(ok)
				return err
			})
		}
		cap100S, err := control("oocore.cap100.solve", oocore.Engine{MemLimit: inCore})
		if err != nil {
			return err
		}
		syncS, err := control("oocore.syncspill.solve", oocore.Engine{MemLimit: inCore / 4, Writeback: -1, NoPrefetch: true})
		if err != nil {
			return err
		}
		res.constant("sequential_solve_s", seqS, "s")
		res.set("oocore.slowdown_vs_incore", baseS/seqS)
		res.set("oocore.cap100_s", cap100S)
		res.set("oocore.idle_tax", cap100S/seqS)
		res.set("oocore.syncspill_s", syncS)
		var sweep runSweep
		sweep.add(sweepRuns(g))
		sweep.report(res, g.Size())
		return nil
	})
}

// simResults runs the paper's experiment on one rung of l in virtual
// time: 64 nodes with combining 100, 64 nodes without combining, and one
// node, in that order.
func simResults(l *ladder.Ladder, rung int) ([3]*ra.Result, error) {
	var results [3]*ra.Result
	for i, e := range []ra.Distributed{{Workers: 64, Combine: 100}, {Workers: 64, Combine: 1}, {Workers: 1}} {
		res, err := l.SolveRung(rung, e)
		if err != nil {
			return results, err
		}
		results[i] = res
	}
	return results, nil
}

// sim64: the timed unit is the host time of the 64-node, combining-100
// simulated solve. The virtual-time results are exact and are checked
// against golden.json, so a change that moves them fails the run.
func (r *run) sim64() error {
	rung := r.sz.SimRung
	var l *ladder.Ladder
	if err := r.setups(func() (err error) {
		l, err = substrate(rung)
		return err
	}); err != nil {
		return err
	}
	want, ok := goldenSimFor(rung)
	if !ok {
		return fmt.Errorf("golden.json has no simulation of awari-%d", rung)
	}
	r.res.constant("sim_rung", float64(rung), "stones")
	r.res.constant("nodes", 64, "count")
	r.res.constant("combine", 100, "count")
	var report *ra.SimReport
	unit := func(tr *tracer) (time.Duration, bool, error) {
		end := tr.begin("sim.solve")
		t0 := time.Now()
		res, err := l.SolveRung(rung, ra.Distributed{Workers: 64, Combine: 100})
		d := time.Since(t0)
		end()
		if err != nil {
			return 0, false, err
		}
		report = res.Sim
		ok := matchesGolden(rung, res) && int64(report.Duration) == want.VirtualNS64 &&
			report.DataMessages == want.DataMsgs100 && report.Events == want.Events
		return d, ok, nil
	}
	return r.solveWorkload(awari.Size(rung), unit, func(baseS float64) error {
		var results [3]*ra.Result
		if _, err := r.timed("sim.controls", func() (err error) {
			results, err = simResults(l, rung)
			return err
		}); err != nil {
			return err
		}
		res := r.res
		for _, sr := range results {
			res.count(matchesGolden(rung, sr))
		}
		got := describeSim(rung, results)
		res.count(got == want)
		res.set("sim.speedup", float64(got.VirtualNS1)/float64(got.VirtualNS64))
		res.set("sim.combine_ratio", float64(got.DataMsgs1)/float64(got.DataMsgs100))
		res.set("sim.virtual_s", float64(got.VirtualNS64)/1e9)
		res.set("combine.factor", results[0].Sim.Combining.Factor())
		res.set("network.data_msgs", float64(got.DataMsgs100))
		res.set("network.protocol_msgs", float64(got.ProtocolMsgs))
		res.set("cluster.local_update_share", float64(got.LocalUpdates)/float64(got.LocalUpdates+got.RemoteUpdates))
		res.set("cluster.cpu_busy_share", float64(got.NodeBusyNSSummed)/(64*float64(got.VirtualNS64)))
		res.set("sim.events", float64(got.Events))
		res.set("sim.events_per_s", float64(report.Events)/baseS)
		sweep := sweepScalar(l.Slice(rung))
		sweep.report(res)
		return nil
	})
}
