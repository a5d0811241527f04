// Package trainset defines the training-sample representation shared by the
// FXRZ baseline and the CAROL framework: one sample per (field, error bound)
// pair, mapping the field's compressibility features plus the achieved
// compression ratio to the error bound that produced it.
//
// Both frameworks train the regression model on log-scaled quantities:
// compression ratios and relative error bounds span several decades, and the
// log transform makes the mapping nearly piecewise-linear, which regression
// trees approximate well.
package trainset

import (
	"errors"
	"math"

	"carol/internal/features"
)

// Sample is one training observation.
type Sample struct {
	Features features.Vector
	// Ratio is the (measured or estimated) compression ratio.
	Ratio float64
	// RelEB is the value-range-relative error bound that produced Ratio.
	RelEB float64
}

// Set is an appendable collection of samples.
type Set struct {
	samples []Sample
}

// check is the one rule every stored sample obeys: all five features
// finite, the ratio and the bound finite and positive. A non-finite model
// input would also leave the forest's split sort without an order.
func (sm Sample) check() error {
	for _, v := range sm.Features.Slice() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("trainset: features must be finite")
		}
	}
	if !(sm.Ratio > 0) || math.IsInf(sm.Ratio, 1) || !(sm.RelEB > 0) || math.IsInf(sm.RelEB, 1) {
		return errors.New("trainset: ratio and relative error bound must be finite and positive")
	}
	return nil
}

// Add appends a sample, rejecting one that breaks the finiteness and
// positivity rule.
func (s *Set) Add(sm Sample) error {
	if err := sm.check(); err != nil {
		return err
	}
	s.samples = append(s.samples, sm)
	return nil
}

// Len returns the number of samples.
func (s *Set) Len() int { return len(s.samples) }

// Samples returns the underlying slice (not a copy).
func (s *Set) Samples() []Sample { return s.samples }

// Merge appends all samples of other.
func (s *Set) Merge(other *Set) { s.samples = append(s.samples, other.samples...) }

// InputDim is the model input dimensionality: the five features plus the
// log-ratio.
const InputDim = features.Count + 1

// Row converts a feature vector and a target compression ratio into a model
// input row.
func Row(v features.Vector, ratio float64) []float64 {
	return append(v.Slice(), math.Log10(ratio))
}

// Matrix converts the set into (X, y) for rf.Train: inputs are the feature
// vector plus log10(ratio); the target is log10(relative error bound).
func (s *Set) Matrix() (X [][]float64, y []float64) {
	X = make([][]float64, len(s.samples))
	y = make([]float64, len(s.samples))
	for i, sm := range s.samples {
		X[i] = Row(sm.Features, sm.Ratio)
		y[i] = math.Log10(sm.RelEB)
	}
	return X, y
}

// EBFromTarget converts a model prediction (log10 relative error bound)
// back into a relative error bound, clamped to a sane range.
func EBFromTarget(pred float64) float64 {
	eb := math.Pow(10, pred)
	if eb < 1e-12 {
		eb = 1e-12
	}
	if eb > 1 {
		eb = 1
	}
	return eb
}

// GeometricBounds returns n relative error bounds spread geometrically over
// [lo, hi] — the sweep both frameworks use during data collection (the
// paper samples 35 bounds).
func GeometricBounds(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(hi/lo, t)
	}
	return out
}
