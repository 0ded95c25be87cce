// Command rabench is the repository's benchmark: eight named workloads
// from ladder build to brokered serving, four end-to-end metrics every
// workload reports, and a per-layer split timed from outside by a separate
// traced pass. See README.md; spec.go holds the normative names.
//
//	bash bench/run.sh -workload serve-flat -seed 1 -seconds 8 -trace 0
//	bash bench/run.sh -workload all -runs 10 -o bench/out/a.json
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintf(os.Stderr, "rabench: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	runs     int
	outDir   string
	outFile  string
}

func mainErr() error {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or \"all\" (each run in a fresh child process)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same query stream")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.StringVar(&o.scale, "scale", "bench", "problem sizes: bench (what BENCHMARK.json gates) or smoke")
	flag.IntVar(&o.runs, "runs", 1, "with -workload all: untraced runs per workload, seeds seed..seed+runs-1")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for result, trace and scratch files")
	flag.StringVar(&o.outFile, "o", "", "result file (default <out>/result-<workload>[-traced].json)")
	compare := flag.Bool("compare", false, "compare two sets of result files, each given as a file or a quoted glob pattern")
	specFile := flag.String("benchmark-json", "BENCHMARK.json", "with -compare: where the bounds come from")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json as spec.go defines it")
	genGolden := flag.Bool("gen-golden", false, "regenerate golden.json content on standard output (scalar SolveSequential)")
	flag.Parse()

	switch {
	case *printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(benchmarkJSON())
	case *genGolden:
		return writeGolden(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare needs two arguments: side a and side b, each a result file or a quoted glob pattern")
		}
		return compareFiles(os.Stdout, *specFile, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if _, ok := scales[o.scale]; !ok {
		return fmt.Errorf("unknown -scale %q", o.scale)
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 || o.runs < 1 {
		return errors.New("-seconds and -runs must be positive and -trace 0 or 1")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if o.workload == "all" {
		return runAll(o)
	}
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	path := o.outFile
	if path == "" {
		suffix := ""
		if o.trace == 1 {
			suffix = "-traced"
		}
		path = filepath.Join(o.outDir, "result-"+o.workload+suffix+".json")
	}
	if err := writeResults(path, []*result{res}); err != nil {
		return err
	}
	res.print(os.Stdout)
	if err := res.printContractLine(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checked outputs failed or were wrong", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// metric is one reported number. Every value in a result file is a number
// with a unit; there are no display strings.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseReport is the accounting of one load phase of a serve workload.
type phaseReport struct {
	Name        string    `json:"name"`
	RatePerS    float64   `json:"rate_per_s"` // batches/s scheduled; 0 = closed loop
	Seconds     float64   `json:"seconds"`
	Sent        int       `json:"sent"`
	OK          int       `json:"ok"`             // answered correctly: the number of latency samples
	Failed      int       `json:"failed"`         // transport errors and per-query errors
	Shed        int       `json:"shed"`           // overload replies and generator cap
	Wrong       int       `json:"wrong"`          // batches with an answer that differs from the ladder
	SliceOKPerS []float64 `json:"slice_ok_per_s"` // batches answered per second in each slice of the phase
	SliceP50US  []float64 `json:"slice_p50_us"`   // median latency of each slice
	P50US       float64   `json:"p50_us"`
	P99US       float64   `json:"p99_us"`
	BeyondP99   int       `json:"beyond_p99"`
	LateP99US   float64   `json:"late_p99_us"`
	BacklogGrew bool      `json:"backlog_grew"`
}

// result is one run of one workload.
type result struct {
	Schema    int                `json:"schema"`
	Workload  string             `json:"workload"`
	Scale     string             `json:"scale"`
	Traced    bool               `json:"traced"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Host      hostInfo           `json:"host"`
	Constants map[string]metric  `json:"constants"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Samples   map[string]summary `json:"samples,omitempty"`
	Phases    []phaseReport      `json:"phases,omitempty"`
	SelfTimeS map[string]float64 `json:"self_time_s,omitempty"`
}

// set records a metric, which must be declared in spec.go and not set yet.
func (r *result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("rabench: undeclared metric " + name)
	}
	if _, dup := r.Metrics[name]; dup {
		panic("rabench: metric set twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic("rabench: metric " + name + " is not finite")
	}
	r.Metrics[name] = metric{v, unit}
}

func (r *result) constant(name string, v float64, unit string) {
	r.Constants[name] = metric{v, unit}
}

// samples records the per-unit timings behind a median.
func (r *result) samples(name string, xs []float64) summary {
	s := summarize(xs)
	r.Samples[name] = s
	return s
}

// count folds one checked operation into attempted/failed.
func (r *result) count(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

var metricUnits = func() map[string]string {
	m := make(map[string]string)
	for _, s := range endToEnd {
		m[s.Name] = s.Unit
	}
	for _, s := range perLayer {
		m[s.Name] = s.Unit
	}
	return m
}()

// reported returns the metric names a run of this kind must emit.
func reported(traced bool) []string {
	var names []string
	if traced {
		for _, s := range perLayer {
			names = append(names, s.Name)
		}
	} else {
		for _, s := range endToEnd {
			names = append(names, s.Name)
		}
	}
	return names
}

// print lists every metric by name with its unit.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s scale %s seed %d traced %v: attempted %d failed %d\n",
		r.Workload, r.Scale, r.Seed, r.Traced, r.Attempted, r.Failed)
	for _, name := range reported(r.Traced) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %s %s", name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		if s, ok := r.Samples[name]; ok {
			fmt.Fprintf(w, "   (n %d, min %.6g, median %.6g, q3 %.6g)", s.N, s.Min, s.Median, s.Q3)
		}
		fmt.Fprintln(w)
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-17s rate %g/s sent %d ok %d (%.0f/s) failed %d shed %d wrong %d p50 %.0f us p99 %.0f us (%d beyond) late p99 %.0f us\n",
			p.Name, p.RatePerS, p.Sent, p.OK, float64(p.OK)/p.Seconds, p.Failed, p.Shed, p.Wrong, p.P50US, p.P99US, p.BeyondP99, p.LateP99US)
	}
}

// printContractLine prints the one JSON object the driver reads.
func (r *result) printContractLine(w io.Writer) error {
	metrics := make(map[string]metric)
	for _, name := range reported(r.Traced) {
		metrics[name] = r.Metrics[name]
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// resultFile is what -o writes and -compare reads.
type resultFile struct {
	Schema int       `json:"schema"`
	Runs   []*result `json:"runs"`
}

func writeResults(path string, runs []*result) error {
	data, err := json.MarshalIndent(resultFile{schemaVersion, runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readResults reads the runs of every result file the glob pattern
// matches, so that one side of a comparison can be many single-run files
// (which is what interleaving two checkouts' runs produces).
func readResults(pattern string) ([]*result, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result file matches %q", pattern)
	}
	var runs []*result
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if f.Schema != schemaVersion {
			return nil, fmt.Errorf("%s: schema %d, this harness reads %d", path, f.Schema, schemaVersion)
		}
		runs = append(runs, f.Runs...)
	}
	return runs, nil
}

// runAll runs every workload in a fresh child process per run, so peak
// RSS and GC state do not leak between workloads: -runs untraced runs
// each, then one traced run each.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all []*result
	child := func(wl string, seed int64, trace int) error {
		tmp := filepath.Join(o.outDir, fmt.Sprintf("child-%d.json", os.Getpid()))
		defer os.Remove(tmp)
		cmd := exec.Command(self, "-workload", wl, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-scale", o.scale, "-out", o.outDir, "-o", tmp)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w\n%s", wl, seed, trace, err, out)
		}
		runs, err := readResults(tmp)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		all = append(all, runs...)
		return nil
	}
	for _, wl := range workloads {
		for i := 0; i < o.runs; i++ {
			if err := child(wl.Name, o.seed+int64(i), 0); err != nil {
				return err
			}
		}
		if err := child(wl.Name, o.seed, 1); err != nil {
			return err
		}
	}
	path := o.outFile
	if path == "" {
		path = filepath.Join(o.outDir, "result-all.json")
	}
	fmt.Printf("wrote %s (%d runs)\n", path, len(all))
	return writeResults(path, all)
}

// hostInfo is the provenance block of every result.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitCommit  string `json:"git_commit"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitCommit:  "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The go tool stamps the commit when it builds inside a git checkout;
	// the driver's checkout is not one, and says "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.GitCommit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.GitCommit += "+dirty"
				}
			}
		}
	}
	return h
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// benchmarkJSON renders spec.go in the BENCHMARK.json layout.
func benchmarkJSON() any {
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerJSON, len(perLayer))
	for i, s := range perLayer {
		layers[i] = layerJSON{s.Name, s.Unit, s.Better}
	}
	return struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, workloads, endToEnd, layers}
}
