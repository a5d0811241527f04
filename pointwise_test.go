package carol

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"carol/internal/codecs"
	"carol/internal/field"
	"carol/internal/xrand"
)

// dynamicField spans many decades with mixed signs and exact zeros — the
// regime point-wise relative bounds exist for.
func dynamicField(n int, seed uint64) *field.Field {
	rng := xrand.New(seed)
	f := field.New("dyn", n, 1, 1)
	for i := range f.Data {
		switch {
		case rng.Float64() < 0.05:
			f.Data[i] = 0
		default:
			mag := math.Pow(10, rng.Range(-6, 6))
			if rng.Float64() < 0.5 {
				mag = -mag
			}
			f.Data[i] = float32(mag)
		}
	}
	return f
}

// checkPointwise is the oracle for the point-wise bound: |g - f| <= rel*|f|
// at every sample (zeros must be exact), with a small slack for float32
// storage rounding.
func checkPointwise(f, g *field.Field, rel float64) error {
	if f.Len() != g.Len() {
		return errors.New("pwrel: length mismatch")
	}
	for i := range f.Data {
		a, b := float64(f.Data[i]), float64(g.Data[i])
		if math.Abs(a) < pwZeroFloor {
			if b != 0 {
				return fmt.Errorf("pwrel: zero sample %d restored as %g", i, b)
			}
			continue
		}
		if math.Abs(b-a) > rel*math.Abs(a)*(1+1e-5)+math.Abs(a)*1e-6 {
			return fmt.Errorf("pwrel: sample %d: |%g - %g| > %g%%", i, b, a, 100*rel)
		}
	}
	return nil
}

func TestPointwiseBoundAllCodecs(t *testing.T) {
	f := dynamicField(4000, 1)
	for _, name := range codecs.ExtendedNames {
		for _, rel := range []float64{1e-1, 1e-2, 1e-3} {
			stream, err := CompressPointwiseRel(name, f, rel)
			if err != nil {
				t.Fatalf("%s rel %g: %v", name, rel, err)
			}
			g, err := DecompressPointwiseRel(name, stream)
			if err != nil {
				t.Fatalf("%s rel %g: %v", name, rel, err)
			}
			if err := checkPointwise(f, g, rel); err != nil {
				t.Fatalf("%s rel %g: %v", name, rel, err)
			}
		}
	}
}

func TestPointwiseSignsAndZerosExact(t *testing.T) {
	f := field.FromData("sz", 6, 1, 1, []float32{0, -1.5, 2.5, 0, -1e-8 * 0, 3e5})
	stream, err := CompressPointwiseRel("szx", f, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecompressPointwiseRel("szx", stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if f.Data[i] == 0 && g.Data[i] != 0 {
			t.Fatalf("zero at %d became %g", i, g.Data[i])
		}
		if (f.Data[i] < 0) != (g.Data[i] < 0) {
			t.Fatalf("sign flip at %d: %g -> %g", i, f.Data[i], g.Data[i])
		}
	}
}

func TestPointwiseHugeDynamicRangeBeatsAbsolute(t *testing.T) {
	// The point of PW_REL: with 12 decades of dynamic range, an absolute
	// bound tight enough for the small values would barely compress; the
	// relative mode compresses well AND protects small values.
	f := dynamicField(8000, 2)
	stream, err := CompressPointwiseRel("szp", f, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(f.SizeBytes()) / float64(len(stream)); ratio < 1.2 {
		t.Fatalf("pwrel ratio only %g", ratio)
	}
	g, err := DecompressPointwiseRel("szp", stream)
	if err != nil {
		t.Fatal(err)
	}
	// Small values must keep their relative accuracy.
	for i, v := range f.Data {
		if v != 0 && math.Abs(float64(v)) < 1e-3 {
			relErr := math.Abs(float64(g.Data[i])-float64(v)) / math.Abs(float64(v))
			if relErr > 1.1e-2 {
				t.Fatalf("small value %g lost accuracy: rel err %g", v, relErr)
			}
		}
	}
}

func TestPointwiseRelValidation(t *testing.T) {
	f := dynamicField(100, 3)
	for _, rel := range []float64{0, -1, 1, 2} {
		if _, err := CompressPointwiseRel("szx", f, rel); err == nil {
			t.Errorf("rel %g accepted", rel)
		}
	}
	if _, err := DecompressPointwiseRel("szx", nil); err == nil {
		t.Error("nil stream accepted")
	}
	if _, err := DecompressPointwiseRel("szx", []byte{255, 255, 255, 255, 0}); err == nil {
		t.Error("bad bitmap length accepted")
	}
}
