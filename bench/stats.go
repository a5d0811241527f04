package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer and the value is one or two outliers, not a tail.
const minBeyond = 10

// tailCandidates are the percentiles the harness is willing to report, in
// ascending order.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile picks the highest candidate percentile that still has at
// least minBeyond of the n samples beyond it. With fewer than 2*minBeyond
// samples not even the median qualifies and ok is false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		// The epsilon absorbs the rounding of 100-c (99.9 is not exact).
		if float64(n)*(100-c)/100 >= minBeyond-1e-9 {
			p, ok = c, true
		}
	}
	return p, ok
}

// quartiles returns Q1, Q2, Q3 the way Python's statistics.quantiles(xs, n=4)
// does with its default "exclusive" method, so -compare reads the same
// spread the driver does. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise measure the benchmark contract uses.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 { //carol:allow floateq an all-zero metric has no relative spread
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// geomean returns the geometric mean of the positive values in xs (0 when
// there are none).
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// mbps converts (bytes, seconds) to 10^6 bytes per second.
func mbps(bytes int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / seconds
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
