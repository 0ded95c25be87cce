package main

import (
	"math"
	"sort"
)

// summary describes a set of samples of one quantity.
//
// Every timed quantity the harness repeats — units, set-ups, slices of a
// load phase — is reported as the quartile on its fast side (Q1 of times,
// Q3 of rates), not as the median. On the seed host, a shared two-core VM,
// the same binary slows by 10 to 25 % for seconds to minutes at a time;
// the noise only ever adds time, so the fast quartile estimates the code's
// own speed, and it repeated within 9 % where the median of the same
// samples repeated within 13 to 18 %. The median and the other quartiles
// stay in the result file's samples.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize sorts a copy of xs. Quartiles follow Python's
// statistics.quantiles(xs, n=4) (the exclusive method), which is what the
// benchmark contract uses for run-to-run spread.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	out := summary{N: n, Min: s[0], Max: s[n-1], Median: quantileExclusive(s, 2)}
	out.Q1, out.Q3 = quantileExclusive(s, 1), quantileExclusive(s, 3)
	return out
}

// quantileExclusive returns the i-th quartile cut (i = 1, 2, 3) of sorted s.
func quantileExclusive(s []float64, i int) float64 {
	ld := len(s)
	if ld == 1 {
		return s[0]
	}
	const n = 4
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*n)
	return (s[j-1]*(n-delta) + s[j]*delta) / n
}

func median(xs []float64) float64 { return summarize(xs).Median }

// spreadShare is the interquartile distance as a share of the median.
func (s summary) spreadShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// exactQuantile returns the q-quantile of sorted samples as the smallest
// sample with at least a q share of the samples at or below it.
func exactQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}
