package secre

import (
	"math"
	"sync"
	"testing"

	"carol/internal/field"
)

var surrogateNames = []string{"szx", "zfp", "sz3", "sperr", "szp"}

// sweepBounds returns 12 bounds from 1e-6 to 0.5 of f's value range,
// geometrically spaced, each followed by the power of two below it (the
// edges of the ZFP surrogate's memo key), then the whole list backwards so a
// memo is also read after it was filled.
func sweepBounds(f *field.Field) []float64 {
	r := f.ValueRange()
	var ebs []float64
	for i := 0; i < 12; i++ {
		eb := r * 1e-6 * math.Pow(0.5/1e-6, float64(i)/11)
		ebs = append(ebs, eb, math.Ldexp(1, int(math.Floor(math.Log2(eb)))), math.Nextafter(eb, 0))
	}
	for i := len(ebs) - 1; i >= 0; i-- {
		ebs = append(ebs, ebs[i])
	}
	return ebs
}

func sweepFields() []*field.Field {
	return []*field.Field{
		smoothField(611, 1, 1, 11),
		smoothField(53, 37, 1, 12),
		smoothField(40, 33, 17, 13),
		smoothField(64, 64, 64, 14),
	}
}

// TestBoundMatchesReference: Prepare-then-Ratio, and EstimateRatio through
// it, return the pre-refactor estimator's number bit for bit — at the
// default sampling and at the dense sampling the served search uses.
func TestBoundMatchesReference(t *testing.T) {
	fields := sweepFields()
	for _, opts := range []Options{{}, {MinSampledBlocks: 4096}} {
		for _, name := range surrogateNames {
			est, err := New(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fields {
				if testing.Short() && f.Len() > 1<<15 {
					continue
				}
				b, err := est.Prepare(f)
				if err != nil {
					t.Fatal(err)
				}
				for i, eb := range sweepBounds(f) {
					want := refEstimate(name, opts, f, eb)
					got, err := b.Ratio(eb)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %+v %dx%dx%d eb=%g (#%d): bound form %v, reference %v", name, opts, f.Nx, f.Ny, f.Nz, eb, i, got, want)
					}
					if i%7 != 0 {
						continue
					}
					one, err := est.EstimateRatio(f, eb)
					if err != nil || math.Float64bits(one) != math.Float64bits(want) {
						t.Fatalf("%s %dx%dx%d eb=%g: EstimateRatio %v (%v), reference %v", name, f.Nx, f.Ny, f.Nz, eb, one, err, want)
					}
				}
			}
		}
	}
}

// TestBoundsArePerField: bounds prepared from one Estimator for two fields
// of one shape keep their own numbers however their calls interleave, and a
// bound prepared later for the first field again starts clean.
func TestBoundsArePerField(t *testing.T) {
	f1, f2 := smoothField(40, 33, 17, 21), smoothField(40, 33, 17, 22)
	for _, name := range surrogateNames {
		est, err := New(name, Options{MinSampledBlocks: 4096})
		if err != nil {
			t.Fatal(err)
		}
		b1, err := est.Prepare(f1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := est.Prepare(f2)
		if err != nil {
			t.Fatal(err)
		}
		check := func(b *Bound, f *field.Field, eb float64) {
			t.Helper()
			got, err := b.Ratio(eb)
			want := refEstimate(name, Options{MinSampledBlocks: 4096}, f, eb)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s eb=%g: %v (%v), want %v", name, eb, got, err, want)
			}
		}
		ebs := sweepBounds(f1)[:12]
		for _, eb := range ebs {
			check(b1, f1, eb)
			check(b2, f2, eb)
		}
		again, err := est.Prepare(f1)
		if err != nil {
			t.Fatal(err)
		}
		for _, eb := range ebs {
			check(b2, f2, eb)
			check(again, f1, eb)
		}
	}
}

// TestBoundsConcurrent: two bounds of one Estimator serve two goroutines
// (go test -race).
func TestBoundsConcurrent(t *testing.T) {
	fields := []*field.Field{smoothField(32, 32, 16, 31), smoothField(32, 32, 16, 32)}
	for _, name := range surrogateNames {
		est, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, f := range fields {
			wg.Add(1)
			go func(f *field.Field) {
				defer wg.Done()
				b, err := est.Prepare(f)
				if err != nil {
					t.Error(err)
					return
				}
				for _, eb := range sweepBounds(f)[:18] {
					got, err := b.Ratio(eb)
					if want := refEstimate(name, Options{}, f, eb); err != nil || got != want {
						t.Errorf("%s eb=%g: %v (%v), want %v", name, eb, got, err, want)
					}
				}
			}(f)
		}
		wg.Wait()
	}
}

func TestPrepareAndRatioValidate(t *testing.T) {
	est, err := New("szx", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Prepare(nil); err == nil {
		t.Error("nil field prepared")
	}
	bad := smoothField(16, 16, 1, 41)
	bad.Data[7] = float32(math.NaN())
	if _, err := est.Prepare(bad); err == nil {
		t.Error("field with a NaN prepared")
	}
	b, err := est.Prepare(smoothField(16, 16, 1, 42))
	if err != nil {
		t.Fatal(err)
	}
	for _, eb := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := b.Ratio(eb); err == nil {
			t.Errorf("bound %g accepted", eb)
		}
	}
}
