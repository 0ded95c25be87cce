package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the ratio b/a, and a verdict against the bound
// BENCHMARK.json fixes for the metric:
//
//	ok          b's median is no worse than a's by more than the bound
//	worse       it is, and the runs resolve the difference
//	unresolved  either side's run-to-run spread is wider than the bound,
//	            and the two sides' runs overlap
//
// Per-layer metrics of traced runs are listed below, without a verdict.
// It returns an error if any metric is worse.
func compareFiles(w io.Writer, specPath, aPath, bPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []workloadSpec `json:"workloads"`
		EndToEnd  []metricSpec   `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResults(aPath)
	if err != nil {
		return err
	}
	b, err := readResults(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s\nb = %s\nratio = b median / a median (base a); spread = (q3-q1)/median, the wider side\n\n", aPath, bPath)
	fmt.Fprintf(w, "%-15s %-13s %5s %12s %12s %12s %12s %7s %7s %6s  %s\n",
		"workload", "metric", "n", "a median", "a q1..q3", "b median", "b q1..q3", "ratio", "spread", "bound", "verdict")
	worse := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, sb := collect(a, wl.Name, m.Name, false), collect(b, wl.Name, m.Name, false)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			qa, qb := summarize(sa), summarize(sb)
			v := verdict(sa, sb, m)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-15s %-13s %2d/%-2d %12.6g %5.4g..%-6.4g %12.6g %5.4g..%-6.4g %7.4f %7.4f %6.2f  %s\n",
				wl.Name, m.Name, qa.N, qb.N, qa.Median, qa.Q1, qa.Q3, qb.Median, qb.Q1, qb.Q3,
				qb.Median/qa.Median, max(qa.spreadShare(), qb.spreadShare()), m.Bound, v)
		}
		fa, na := failures(a, wl.Name)
		fb, nb := failures(b, wl.Name)
		if na+nb > 0 {
			fmt.Fprintf(w, "%-15s %-13s failed/attempted a %d/%d, b %d/%d\n", wl.Name, "failures", fa, na, fb, nb)
			if float64(fb)*float64(na) > float64(fa)*float64(nb) {
				worse++
				fmt.Fprintf(w, "%-15s %-13s worse: any increase in the failed share is a regression\n", wl.Name, "failures")
			}
		}
	}
	fmt.Fprintf(w, "\nper-layer metrics (traced runs; median over the traced runs of each side; 0 = layer bypassed)\n")
	for _, wl := range spec.Workloads {
		for _, m := range perLayer {
			sa, sb := collect(a, wl.Name, m.Name, true), collect(b, wl.Name, m.Name, true)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			ma, mb := median(sa), median(sb)
			if ma == 0 && mb == 0 {
				continue
			}
			note := ""
			if ma == mb {
				note = "identical"
			}
			fmt.Fprintf(w, "%-15s %-34s %14.6g %14.6g %-6s %7.4f  %s\n", wl.Name, m.Name, ma, mb, m.Unit, mb/ma, note)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound", worse)
	}
	return nil
}

// collect returns one metric's values over a side's runs of one workload.
func collect(runs []*result, workload, name string, traced bool) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Traced == traced {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failures(runs []*result, workload string) (failed, attempted int) {
	for _, r := range runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

// verdict applies the rule of the choosing-metrics guide: where the
// spread is wider than the bound the metric is unresolved, not unchanged,
// unless every run of one side beats every run of the other.
func verdict(a, b []float64, m metricSpec) string {
	qa, qb := summarize(a), summarize(b)
	worsening := (qb.Median - qa.Median) / qa.Median
	if m.Better == "higher" {
		worsening = -worsening
		a, b = b, a // so that "smaller beats larger" below
	}
	if max(qa.spreadShare(), qb.spreadShare()) <= m.Bound {
		if worsening > m.Bound {
			return "worse"
		}
		return "ok"
	}
	switch {
	case slices.Max(b) < slices.Min(a): // every run of b beats every run of a
		return "ok"
	case slices.Max(a) < slices.Min(b) && worsening > m.Bound:
		return "worse"
	}
	return "unresolved"
}
