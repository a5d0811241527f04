// Package stats provides the small statistical helpers the evaluation uses:
// running accumulators and the paper's estimation-error metric α
// (equations (1) and (2) of the CAROL paper).
package stats

import "math"

// Accumulator tracks running mean, min, max and count of a series.
// The zero value is ready to use.
type Accumulator struct {
	n   int
	sum float64
	min float64
	max float64
}

// Add incorporates v.
func (a *Accumulator) Add(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	a.sum += v
}

// Count returns the number of samples added.
func (a *Accumulator) Count() int { return a.n }

// Mean returns the arithmetic mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Sum returns the total of the samples.
func (a *Accumulator) Sum() float64 { return a.sum }

// Min returns the smallest sample (0 for an empty accumulator).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample (0 for an empty accumulator).
func (a *Accumulator) Max() float64 { return a.max }

// PctError returns the percentage estimation error α_i of one estimate
// against its ground truth (equation (2)): 100 * |est - truth| / truth.
// It returns 0 when truth is 0.
func PctError(est, truth float64) float64 {
	if truth == 0 { //carol:allow floateq exact-zero ground truth guard before dividing
		return 0
	}
	return 100 * math.Abs(est-truth) / math.Abs(truth)
}

// EstimationError returns the mean percentage estimation error α over a
// sample of estimates (equation (1)). The slices must be equal length.
func EstimationError(est, truth []float64) float64 {
	if len(est) != len(truth) || len(est) == 0 {
		return 0
	}
	var acc Accumulator
	for i := range est {
		acc.Add(PctError(est[i], truth[i]))
	}
	return acc.Mean()
}
