// Package calib implements CAROL's calibration method (core contribution 2,
// §5.2 of the paper): it corrects the systematic estimation error of SECRE
// surrogates using a handful of full-compressor runs.
//
// The method relies on two empirical observations from the paper: for a
// given dataset the surrogate always errs on the same side (consistent
// over- or under-estimation), and the relative error curve α(e) is bi-modal
// (two slowly-varying regimes). Fitting a piecewise-linear signed relative
// error through 3–5 calibration points therefore captures the curve well,
// and the corrected estimate
//
//	f_CAL(e) = f_SECRE(e) / (1 + ρ(e))
//
// (the signed form of the paper's equations (3)/(4), with ρ = ±α/100)
// recovers the true ratio to within a few percent.
package calib

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/secre"
)

// Model is a fitted calibration correction for one (dataset, compressor)
// pair.
type Model struct {
	ebs []float64 // calibration error bounds, ascending
	rho []float64 // signed relative estimation error at each bound
	// over records whether the surrogate overestimated at the majority of
	// calibration points (reported for analysis; the correction itself uses
	// the signed per-point values).
	over bool
}

// Fit runs the full compressor at each of the given error bounds, compares
// against the surrogate, and fits the correction model. Both sides are one
// secre.Curve each, so a SECRE surrogate binds the field once. The paper
// finds 3–4 bounds sufficient; Fit accepts any count >= 2.
func Fit(codec compressor.Codec, est compressor.Estimator, f *field.Field, ebs []float64) (*Model, error) {
	if len(ebs) < 2 {
		return nil, errors.New("calib: need at least 2 calibration points")
	}
	pts := append([]float64(nil), ebs...)
	sort.Float64s(pts)
	fulls, err := secre.Curve(&secre.FullEstimator{Codec: codec}, f, pts)
	if err != nil {
		return nil, fmt.Errorf("calib: full compressor: %w", err)
	}
	guesses, err := secre.Curve(est, f, pts)
	if err != nil {
		return nil, fmt.Errorf("calib: surrogate: %w", err)
	}
	m := &Model{ebs: pts, rho: make([]float64, len(pts))}
	overCount := 0
	for i, full := range fulls {
		if full <= 0 {
			return nil, fmt.Errorf("calib: non-positive full ratio at eb=%g", pts[i])
		}
		m.rho[i] = (guesses[i] - full) / full
		if m.rho[i] > 0 {
			overCount++
		}
	}
	m.over = overCount*2 >= len(pts)
	return m, nil
}

// Overestimates reports whether the surrogate overestimated the ratio at
// the majority of calibration points (step 2 of the paper's method).
func (m *Model) Overestimates() bool { return m.over }

// Rho returns the interpolated signed relative estimation error at eb
// (piecewise linear between calibration points, clamped outside).
func (m *Model) Rho(eb float64) float64 {
	n := len(m.ebs)
	if eb <= m.ebs[0] {
		return m.rho[0]
	}
	if eb >= m.ebs[n-1] {
		return m.rho[n-1]
	}
	i := sort.SearchFloat64s(m.ebs, eb)
	// m.ebs[i-1] < eb <= m.ebs[i]
	lo, hi := m.ebs[i-1], m.ebs[i]
	t := (eb - lo) / (hi - lo)
	return m.rho[i-1] + t*(m.rho[i]-m.rho[i-1])
}

// Correct converts a surrogate ratio estimate at eb into a calibrated one.
func (m *Model) Correct(eb, surrogateRatio float64) float64 {
	rho := m.Rho(eb)
	denom := 1 + rho
	if denom < 0.05 {
		denom = 0.05 // defensive: never blow the estimate up by >20x
	}
	return surrogateRatio / denom
}

// CorrectCurve is Correct at every point of a surrogate curve: ratios[i]
// estimated at ebs[i]. It returns a new slice.
func (m *Model) CorrectCurve(ebs, ratios []float64) []float64 {
	out := make([]float64, len(ratios))
	for i, r := range ratios {
		out[i] = m.Correct(ebs[i], r)
	}
	return out
}

// PickCalibrationBounds selects n error bounds spread geometrically across
// [lo, hi] — the spread the paper uses so the piecewise model sees both
// bi-modal regimes.
func PickCalibrationBounds(lo, hi float64, n int) []float64 {
	if n < 2 || !(lo > 0) || !(hi > lo) {
		return []float64{lo, hi}
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(ratio, t)
	}
	return out
}
