package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMatchesSpec asserts that /BENCHMARK.json is spec.go
// rendered as JSON, and that the spec stays inside the benchmark
// contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromSpec any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	rendered, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rendered, &fromSpec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromSpec) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `bash bench/run.sh -spec`")
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Layer == "" || m.Moves == "" {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at the smoke scale, untraced
// and traced, and asserts that each declared metric is emitted exactly
// once (result.set panics on a second) with a finite value, that every
// output checked out, and that the contract line carries exactly the
// declared names.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := runWorkload(options{workload: w.Name, seed: 7, seconds: 0.3, trace: trace, scale: "smoke", outDir: dir})
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, failed %d of %d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for _, name := range reported(trace == 1) {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace %d: %s not emitted", w.Name, trace, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != metricUnits[name] {
					t.Errorf("%s trace %d: %s = %v %q", w.Name, trace, name, m.Value, m.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
			if res.Host.NumCPU < 1 || res.Host.GoVersion == "" || res.Schema != schemaVersion {
				t.Errorf("%s: incomplete provenance %+v", w.Name, res.Host)
			}

			var line bytes.Buffer
			if err := res.printContractLine(&line); err != nil {
				t.Fatal(err)
			}
			var contract struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&contract); err != nil || contract.Correct == nil || contract.Attempted == nil || contract.Failed == nil {
				t.Fatalf("%s: contract line %q: %v", w.Name, line.String(), err)
			}
			if len(contract.Metrics) != len(reported(trace == 1)) {
				t.Errorf("%s trace %d: contract line has %d metrics, want %d", w.Name, trace, len(contract.Metrics), len(reported(trace == 1)))
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".jsonl")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
				if w.Name == "ladder13-swar" || w.Name == "rung13-scalar" {
					if share := res.Metrics["ra.attributed_share"].Value; share < 0.95 {
						t.Errorf("%s: the four ra phases cover %.3f of the solve span, want >= 0.95", w.Name, share)
					}
				}
			}
		}
	}
}

func TestGoldenDetectsAChangedDatabase(t *testing.T) {
	l, err := substrate(5)
	if err != nil {
		t.Fatal(err)
	}
	if !ladderMatchesGolden(l) {
		t.Fatal("a freshly built ladder does not match golden.json")
	}
	l.Result(4).Values[17] ^= 1
	if ladderMatchesGolden(l) {
		t.Error("a flipped value still matches golden.json")
	}
}

func TestQuartilesFollowPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	s := summarize([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if s.Q1 != 3.5 || s.Median != 24 || s.Q3 != 160 || s.N != 10 || s.Min != 1 || s.Max != 512 {
		t.Errorf("summary %+v", s)
	}
	if got := exactQuantile([]int64{10, 20, 30, 40}, 0.5); got != 20 {
		t.Errorf("exact p50 = %d, want 20", got)
	}
	if got := exactQuantile([]int64{10, 20, 30, 40}, 0.99); got != 40 {
		t.Errorf("exact p99 = %d, want 40", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "unit_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metricSpec
		want string
	}{
		{"same", tight, tight, lower, "ok"},
		{"5% slower, inside the bound", tight, []float64{105, 106, 104, 105, 107}, lower, "ok"},
		{"20% slower", tight, []float64{120, 121, 119, 120, 122}, lower, "worse"},
		{"20% less throughput", tight, []float64{80, 81, 79, 80, 82}, higher, "worse"},
		{"20% more throughput", tight, []float64{120, 121, 119, 120, 122}, higher, "ok"},
		{"noisy and overlapping", []float64{80, 100, 120, 140, 90}, []float64{85, 130, 150, 100, 95}, lower, "unresolved"},
		{"noisy but every run better", []float64{200, 260, 320, 230, 290}, []float64{80, 100, 120, 140, 90}, lower, "ok"},
		{"noisy and every run worse", []float64{80, 100, 120, 140, 90}, []float64{200, 260, 320, 230, 290}, lower, "worse"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	endOuter := tr.begin("outer")
	endInner := tr.begin("inner")
	endInner()
	endOuter()
	tr.spans[0].Start, tr.spans[0].End = 0, 10e9
	tr.spans[1].Start, tr.spans[1].End = 2e9, 5e9
	self := tr.selfTime()
	if self["outer"] != 7 || self["inner"] != 3 || tr.spans[1].Parent != tr.spans[0].ID {
		t.Errorf("self times %v, spans %+v", self, tr.spans)
	}
}
