package experiments

import (
	"math"
	"testing"

	"carol/internal/calib"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
)

// perBound hides a surrogate's type, so secre.Curve (inside calib.Fit too)
// falls back to one EstimateRatio, and so one re-bind, per bound.
type perBound struct{ compressor.Estimator }

// TestSweepsMatchPointwise: the truth, raw and calibrated curves Fig 3,
// Fig 10 and Table 5 build (measureSweep, calibrate) equal, bit for bit,
// a per-bound loop of Compress, EstimateRatio and Correct, for every codec.
func TestSweepsMatchPointwise(t *testing.T) {
	p := tinyParams()
	p.sweep = []float64{1e-4, 1e-3, 1e-2, 1e-1}
	f, err := p.genField("miranda", "viscosity", 0)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s at rel=%g: %v, per-bound %v", what, p.sweep[i], got[i], want[i])
			}
		}
	}
	for _, name := range codecs.Names {
		c, err := measureSweep(name, f, p.sweep)
		if err != nil {
			t.Fatal(err)
		}
		cals, _, _, err := c.calibrate(4)
		if err != nil {
			t.Fatal(err)
		}
		codec, err := codecs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sur, err := codecs.SurrogateByName(name)
		if err != nil {
			t.Fatal(err)
		}
		truth, raw := refCurves(t, codec, sur, f, p.sweep)
		lo, hi := compressor.AbsBound(f, p.sweep[0]), compressor.AbsBound(f, p.sweep[len(p.sweep)-1])
		m, err := calib.Fit(codec, perBound{sur}, f, calib.PickCalibrationBounds(lo, hi, 4))
		if err != nil {
			t.Fatal(err)
		}
		refCals := make([]float64, len(raw))
		for i, rel := range p.sweep {
			refCals[i] = m.Correct(compressor.AbsBound(f, rel), raw[i])
		}
		same(name+" truth", c.truth, truth)
		same(name+" raw", c.raw, raw)
		same(name+" calibrated", cals, refCals)
	}
}

// refCurves is the per-bound loop the experiments ran before secre.Curve:
// AbsBound, Compress and EstimateRatio at each relative bound.
func refCurves(t *testing.T, codec compressor.Codec, sur compressor.Estimator, f *field.Field, rels []float64) (truth, raw []float64) {
	t.Helper()
	for _, rel := range rels {
		eb := compressor.AbsBound(f, rel)
		stream, err := codec.Compress(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sur.EstimateRatio(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		truth = append(truth, compressor.Ratio(f, stream))
		raw = append(raw, r)
	}
	return truth, raw
}
