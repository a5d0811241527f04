package calib

import (
	"errors"
	"math"
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/safedec"
	"carol/internal/secre"
	"carol/internal/stats"
	"carol/internal/xrand"
)

func smoothField(nx, ny, nz int, seed uint64) *field.Field {
	n := xrand.NewNoise(seed)
	f := field.New("smooth", nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				f.Set(x, y, z, float32(5*n.FBm(float64(x)/20, float64(y)/20, float64(z)/20, 4, 0.5)))
			}
		}
	}
	return f
}

// fakeEstimator returns a fixed multiple of a ground-truth function,
// letting us test the correction math exactly.
type fakeEstimator struct {
	truth func(eb float64) float64
	bias  float64 // estimate = truth * (1 + bias)
}

func (f *fakeEstimator) Name() string { return "fake" }
func (f *fakeEstimator) EstimateRatio(_ *field.Field, eb float64) (float64, error) {
	return f.truth(eb) * (1 + f.bias), nil
}

// fakeCodec produces a stream sized so that Ratio(f, stream) == truth(eb).
type fakeCodec struct {
	truth func(eb float64) float64
}

func (f *fakeCodec) Name() string { return "fake" }
func (f *fakeCodec) Compress(fl *field.Field, eb float64) ([]byte, error) {
	n := int(float64(fl.SizeBytes()) / f.truth(eb))
	if n < 1 {
		n = 1
	}
	return make([]byte, n), nil
}
func (f *fakeCodec) Decompress([]byte) (*field.Field, error) {
	return nil, errors.New("not implemented")
}
func (f *fakeCodec) DecompressLimited([]byte, safedec.Limits) (*field.Field, error) {
	return nil, errors.New("not implemented")
}

func TestFitRecoversConstantBias(t *testing.T) {
	truth := func(eb float64) float64 { return 100 * eb }
	est := &fakeEstimator{truth: truth, bias: 0.5} // 50% overestimation
	codec := &fakeCodec{truth: truth}
	f := smoothField(16, 16, 1, 1)
	m, err := Fit(codec, est, f, []float64{0.1, 0.4, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Overestimates() {
		t.Fatal("overestimation not detected")
	}
	for _, eb := range []float64{0.1, 0.2, 0.7, 1.0} {
		guess, _ := est.EstimateRatio(f, eb)
		corrected := m.Correct(eb, guess)
		want := truth(eb)
		if math.Abs(corrected-want)/want > 0.05 {
			t.Fatalf("eb=%g: corrected %g, want %g", eb, corrected, want)
		}
	}
}

func TestFitDetectsUnderestimation(t *testing.T) {
	truth := func(eb float64) float64 { return 50 + 10*eb }
	est := &fakeEstimator{truth: truth, bias: -0.3}
	codec := &fakeCodec{truth: truth}
	f := smoothField(8, 8, 1, 2)
	m, err := Fit(codec, est, f, []float64{0.1, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if m.Overestimates() {
		t.Fatal("underestimation misclassified")
	}
}

func TestFitNeedsTwoPoints(t *testing.T) {
	truth := func(eb float64) float64 { return 10 }
	if _, err := Fit(&fakeCodec{truth}, &fakeEstimator{truth: truth}, smoothField(4, 4, 1, 3), []float64{0.5}); err == nil {
		t.Fatal("single calibration point accepted")
	}
}

func TestRhoInterpolationAndClamping(t *testing.T) {
	m := &Model{ebs: []float64{1, 2, 4}, rho: []float64{0.1, 0.3, 0.2}}
	cases := []struct{ eb, want float64 }{
		{0.5, 0.1}, // clamped low
		{1, 0.1},
		{1.5, 0.2}, // midpoint of first segment
		{2, 0.3},
		{3, 0.25}, // midpoint of second segment
		{4, 0.2},
		{10, 0.2}, // clamped high
	}
	for _, c := range cases {
		if got := m.Rho(c.eb); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Rho(%g) = %g, want %g", c.eb, got, c.want)
		}
	}
}

func TestCorrectDefensiveDenominator(t *testing.T) {
	m := &Model{ebs: []float64{1, 2}, rho: []float64{-0.99, -0.99}}
	// 1 + rho = 0.01 < 0.05 floor.
	if got := m.Correct(1.5, 1.0); got > 21 {
		t.Fatalf("runaway correction: %g", got)
	}
}

func TestPickCalibrationBounds(t *testing.T) {
	b := PickCalibrationBounds(1e-4, 1e-1, 4)
	if len(b) != 4 {
		t.Fatalf("got %d bounds", len(b))
	}
	if math.Abs(b[0]-1e-4) > 1e-12 || math.Abs(b[3]-1e-1) > 1e-12 {
		t.Fatalf("endpoints wrong: %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("not ascending: %v", b)
		}
	}
	// Geometric spacing: constant ratio.
	r1, r2 := b[1]/b[0], b[2]/b[1]
	if math.Abs(r1-r2) > 1e-9 {
		t.Fatalf("not geometric: %v", b)
	}
}

func TestPickCalibrationBoundsDegenerate(t *testing.T) {
	b := PickCalibrationBounds(0.5, 0.5, 3)
	if len(b) != 2 {
		t.Fatalf("degenerate input: %v", b)
	}
}

// TestCalibrationReducesSZ3Error is the end-to-end version of Table 5:
// calibration with 4 points must substantially reduce the SZ3 surrogate's
// estimation error across a sweep.
func TestCalibrationReducesSZ3Error(t *testing.T) {
	f := smoothField(48, 48, 16, 4)
	codec, err := codecs.ByName("sz3")
	if err != nil {
		t.Fatal(err)
	}
	est, err := secre.New("sz3", secre.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := compressor.AbsBound(f, 1e-3), compressor.AbsBound(f, 1e-1)
	m, err := Fit(codec, est, f, PickCalibrationBounds(lo, hi, 4))
	if err != nil {
		t.Fatal(err)
	}

	sweep := PickCalibrationBounds(lo, hi, 9) // includes off-calibration bounds
	var rawErr, calErr stats.Accumulator
	for _, eb := range sweep {
		stream, err := codec.Compress(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		full := compressor.Ratio(f, stream)
		raw, err := est.EstimateRatio(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		corrected := m.Correct(eb, raw)
		rawErr.Add(100 * math.Abs(raw-full) / full)
		calErr.Add(100 * math.Abs(corrected-full) / full)
	}
	if calErr.Mean() > rawErr.Mean()/2 {
		t.Fatalf("calibration did not halve error: raw %.1f%% -> cal %.1f%%",
			rawErr.Mean(), calErr.Mean())
	}
	if calErr.Mean() > 15 {
		t.Fatalf("calibrated error still %.1f%%", calErr.Mean())
	}
}

// TestFitMatchesPointwise: Fit's two curves (the compressor's, and a SECRE
// surrogate bound once) give, bit for bit, the correction a per-bound loop
// of Compress and EstimateRatio gives, and CorrectCurve is Correct at every
// point.
func TestFitMatchesPointwise(t *testing.T) {
	f := smoothField(24, 24, 8, 9)
	for _, name := range []string{"sz3", "sperr"} {
		codec, err := codecs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		est, err := secre.New(name, secre.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ebs := PickCalibrationBounds(compressor.AbsBound(f, 1e-3), compressor.AbsBound(f, 1e-1), 4)
		m, err := Fit(codec, est, f, ebs)
		if err != nil {
			t.Fatal(err)
		}
		raws := make([]float64, len(ebs))
		for i, eb := range ebs {
			stream, err := codec.Compress(f, eb)
			if err != nil {
				t.Fatal(err)
			}
			full := compressor.Ratio(f, stream)
			if raws[i], err = est.EstimateRatio(f, eb); err != nil {
				t.Fatal(err)
			}
			if want := (raws[i] - full) / full; math.Float64bits(m.rho[i]) != math.Float64bits(want) {
				t.Fatalf("%s eb=%g: rho %v, per-bound %v", name, eb, m.rho[i], want)
			}
		}
		cals := m.CorrectCurve(ebs, raws)
		for i, eb := range ebs {
			if want := m.Correct(eb, raws[i]); math.Float64bits(cals[i]) != math.Float64bits(want) {
				t.Fatalf("%s eb=%g: CorrectCurve %v, Correct %v", name, eb, cals[i], want)
			}
		}
	}
}
