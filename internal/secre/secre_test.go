package secre

import (
	"math"
	"testing"
	"time"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/obs"
	"carol/internal/sperr"
	"carol/internal/sz3"
	"carol/internal/szx"
	"carol/internal/xrand"
	"carol/internal/zfp"
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

func codecFor(t *testing.T, name string) compressor.Codec {
	t.Helper()
	switch name {
	case "szx":
		return szx.New()
	case "zfp":
		return zfp.New()
	case "sz3":
		return sz3.New()
	case "sperr":
		return sperr.New()
	}
	t.Fatalf("unknown codec %s", name)
	return nil
}

func TestNewRejectsUnknown(t *testing.T) {
	if _, err := New("lz4", Options{}); err == nil {
		t.Fatal("unknown compressor accepted")
	}
}

func TestNames(t *testing.T) {
	for _, name := range []string{"szx", "zfp", "sz3", "sperr"} {
		e, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != name {
			t.Fatalf("Name() = %q, want %q", e.Name(), name)
		}
	}
}

func TestEstimateRejectsBadArgs(t *testing.T) {
	e, err := New("szx", Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := smoothField(16, 16, 1, 1)
	if _, err := e.EstimateRatio(f, 0); err == nil {
		t.Fatal("eb=0 accepted")
	}
	if _, err := e.EstimateRatio(f, -1); err == nil {
		t.Fatal("eb<0 accepted")
	}
}

// TestHighThroughputSurrogatesAccurate mirrors §5.2: SZx and ZFP surrogates
// track the full compressor closely because they run the same core encoding
// on their samples.
func TestHighThroughputSurrogatesAccurate(t *testing.T) {
	f := smoothField(64, 64, 16, 2)
	for _, name := range []string{"szx", "zfp"} {
		est, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := codecFor(t, name)
		for _, rel := range []float64{1e-3, 1e-2} {
			eb := compressor.AbsBound(f, rel)
			stream, err := c.Compress(f, eb)
			if err != nil {
				t.Fatal(err)
			}
			full := compressor.Ratio(f, stream)
			got, err := est.EstimateRatio(f, eb)
			if err != nil {
				t.Fatal(err)
			}
			relErr := abs(got-full) / full
			if relErr > 0.25 {
				t.Errorf("%s rel=%g: surrogate %.2f vs full %.2f (%.0f%% off)",
					name, rel, got, full, 100*relErr)
			}
		}
	}
}

// TestSZ3SurrogateUnderestimates mirrors the observation that the SZ3
// surrogate, lacking the Huffman and Zstd stages, consistently
// under-estimates the achievable ratio on smooth data.
func TestSZ3SurrogateUnderestimates(t *testing.T) {
	f := smoothField(64, 64, 16, 3)
	est, err := New("sz3", Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := codecFor(t, "sz3")
	for _, rel := range []float64{1e-3, 1e-2} {
		eb := compressor.AbsBound(f, rel)
		stream, err := c.Compress(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		full := compressor.Ratio(f, stream)
		got, err := est.EstimateRatio(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		if got >= full {
			t.Errorf("rel=%g: surrogate %.2f not below full %.2f", rel, got, full)
		}
	}
}

// TestBiasSignConsistent is the property calibration depends on: for a given
// dataset and compressor, the surrogate errs on the same side across the
// error-bound sweep.
func TestBiasSignConsistent(t *testing.T) {
	f := smoothField(48, 48, 12, 4)
	for _, name := range []string{"sz3", "sperr"} {
		est, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := codecFor(t, name)
		pos, neg := 0, 0
		for _, rel := range []float64{3e-3, 1e-2, 3e-2, 1e-1} {
			eb := compressor.AbsBound(f, rel)
			stream, err := c.Compress(f, eb)
			if err != nil {
				t.Fatal(err)
			}
			full := compressor.Ratio(f, stream)
			got, err := est.EstimateRatio(f, eb)
			if err != nil {
				t.Fatal(err)
			}
			if got > full {
				pos++
			} else {
				neg++
			}
		}
		if pos != 0 && neg != 0 {
			t.Errorf("%s: bias sign flipped across sweep (%d over, %d under)", name, pos, neg)
		}
	}
}

// TestSurrogateFasterThanFull mirrors Table 4: estimation must be
// substantially cheaper than full compression for the high-ratio group.
func TestSurrogateFasterThanFull(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	f := smoothField(64, 64, 64, 5)
	for _, name := range []string{"sz3", "sperr"} {
		est, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := codecFor(t, name)
		eb := compressor.AbsBound(f, 1e-3)
		t0 := time.Now()
		if _, err := c.Compress(f, eb); err != nil {
			t.Fatal(err)
		}
		fullTime := time.Since(t0)
		t0 = time.Now()
		if _, err := est.EstimateRatio(f, eb); err != nil {
			t.Fatal(err)
		}
		estTime := time.Since(t0)
		if estTime*3 > fullTime {
			t.Errorf("%s: estimate %v not ≪ full %v", name, estTime, fullTime)
		}
	}
}

func TestCurveMonotoneInputs(t *testing.T) {
	f := smoothField(32, 32, 8, 6)
	est, err := New("szx", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ebs := []float64{1e-4, 1e-3, 1e-2, 1e-1}
	for i := range ebs {
		ebs[i] = compressor.AbsBound(f, ebs[i])
	}
	curve, err := Curve(est, f, ebs)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(ebs) {
		t.Fatalf("curve length %d", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]*0.95 {
			t.Fatalf("estimated curve not monotone: %v", curve)
		}
	}
}

func TestCurvePropagatesError(t *testing.T) {
	f := smoothField(8, 8, 1, 7)
	est, err := New("zfp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Curve(est, f, []float64{1e-3, -1}); err == nil {
		t.Fatal("bad bound in curve accepted")
	}
}

func TestFullEstimatorMatchesCodec(t *testing.T) {
	f := smoothField(32, 32, 1, 8)
	c := codecFor(t, "szx")
	fe := &FullEstimator{Codec: c}
	if fe.Name() != "szx" {
		t.Fatalf("Name = %q", fe.Name())
	}
	eb := compressor.AbsBound(f, 1e-2)
	stream, err := c.Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	want := compressor.Ratio(f, stream)
	got, err := fe.EstimateRatio(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("FullEstimator ratio %g, want %g", got, want)
	}
}

func TestSmallFieldAdaptation(t *testing.T) {
	// Tiny fields must still produce finite positive estimates.
	f := smoothField(8, 8, 1, 9)
	for _, name := range []string{"szx", "zfp", "sz3", "sperr"} {
		est, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := est.EstimateRatio(f, compressor.AbsBound(f, 1e-2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r <= 0 || r > 1e6 {
			t.Fatalf("%s: ratio %g", name, r)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkEstimateVsFull(b *testing.B) {
	f := smoothField(64, 64, 64, 1)
	eb := compressor.AbsBound(f, 1e-3)
	for _, name := range []string{"szx", "zfp", "sz3", "sperr"} {
		est, err := New(name, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/estimate", func(b *testing.B) {
			b.SetBytes(int64(f.SizeBytes()))
			for i := 0; i < b.N; i++ {
				if _, err := est.EstimateRatio(f, eb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Regression: RecordOutcome must reject non-finite inputs instead of
// poisoning the estimate-error gauges (an Inf actual used to slip past the
// "actual > 0" guard and record a bogus finite -1 relative error).
func TestRecordOutcomeRejectsNonFinite(t *testing.T) {
	const name = "szx"
	gauge := obs.Default.Gauge(obs.Label("secre_estimate_rel_error", "codec", name))
	outcomes := obs.Default.Counter(obs.Label("secre_outcomes_total", "codec", name))
	rejects := obs.Default.Counter(obs.Label("secre_outcome_rejects_total", "codec", name))

	RecordOutcome(name, 4, 2) // establish a known-good state
	if got := gauge.Value(); got != 1 {
		t.Fatalf("baseline rel error = %g, want 1", got)
	}
	okBefore, rejBefore := outcomes.Value(), rejects.Value()

	bad := []struct {
		name              string
		estimated, actual float64
	}{
		{"inf actual", 4, math.Inf(1)},
		{"neg inf actual", 4, math.Inf(-1)},
		{"nan actual", 4, math.NaN()},
		{"zero actual", 4, 0},
		{"negative actual", 4, -3},
		{"inf estimated", math.Inf(1), 2},
		{"nan estimated", math.NaN(), 2},
		{"non-positive estimated", 0, 2},
	}
	for _, tc := range bad {
		RecordOutcome(name, tc.estimated, tc.actual)
		if got := gauge.Value(); got != 1 {
			t.Errorf("%s: rel error gauge moved to %g", tc.name, got)
		}
	}
	if got := outcomes.Value(); got != okBefore {
		t.Errorf("outcomes counter moved by %d on rejected pairs", got-okBefore)
	}
	if got := rejects.Value() - rejBefore; got != int64(len(bad)) {
		t.Errorf("reject counter delta = %d, want %d", got, len(bad))
	}

	RecordOutcome(name, 3, 2) // good pairs still flow after rejects
	if got := outcomes.Value() - okBefore; got != 1 {
		t.Errorf("good outcome after rejects not recorded (delta %d)", got)
	}
}
