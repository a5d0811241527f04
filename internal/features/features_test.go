package features

import (
	"math"
	"testing"

	"carol/internal/field"
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

func roughField(nx, ny, nz int, seed uint64) *field.Field {
	rng := xrand.New(seed)
	f := field.New("rough", nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = float32(rng.Norm() * 5)
	}
	return f
}

func TestVectorSliceAndNames(t *testing.T) {
	v := Vector{Mean: 1, Range: 2, MND: 3, MLD: 4, MSD: 5}
	s := v.Slice()
	want := []float64{1, 2, 3, 4, 5}
	if len(s) != Count || len(Names()) != Count {
		t.Fatal("feature count mismatch")
	}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("Slice[%d] = %g", i, s[i])
		}
	}
}

func TestConstantFieldHasZeroSmoothnessFeatures(t *testing.T) {
	f := field.New("const", 32, 32, 8)
	for i := range f.Data {
		f.Data[i] = 7
	}
	v := ExtractFull(f)
	if v.Mean != 7 || v.Range != 0 {
		t.Fatalf("Mean/Range = %g/%g", v.Mean, v.Range)
	}
	if v.MND != 0 || v.MLD != 0 || v.MSD != 0 {
		t.Fatalf("smoothness features nonzero: %+v", v)
	}
}

func TestLinearRampHasZeroLorenzoAndSpline(t *testing.T) {
	// A perfectly linear field is exactly predicted by both the Lorenzo
	// predictor and the cubic spline.
	f := field.New("ramp", 32, 16, 8)
	for z := 0; z < f.Nz; z++ {
		for y := 0; y < f.Ny; y++ {
			for x := 0; x < f.Nx; x++ {
				f.Set(x, y, z, float32(2*x+3*y+5*z))
			}
		}
	}
	v := ExtractFull(f)
	if v.MLD > 1e-4 {
		t.Fatalf("MLD on linear ramp = %g", v.MLD)
	}
	if v.MSD > 1e-4 {
		t.Fatalf("MSD on linear ramp = %g", v.MSD)
	}
	// The symmetric neighbor average is exact on a linear field too.
	if v.MND > 1e-4 {
		t.Fatalf("MND on linear ramp = %g", v.MND)
	}
}

func TestRoughVsSmoothOrdering(t *testing.T) {
	smooth := ExtractFull(smoothField(32, 32, 8, 1))
	rough := ExtractFull(roughField(32, 32, 8, 2))
	if rough.MND <= smooth.MND || rough.MLD <= smooth.MLD || rough.MSD <= smooth.MSD {
		t.Fatalf("rough field not rougher: smooth %+v rough %+v", smooth, rough)
	}
}

func TestSampledApproximatesFull(t *testing.T) {
	f := smoothField(64, 64, 16, 3)
	full := ExtractFull(f)
	sampled := ExtractSampled(f, 4)
	for i, name := range Names() {
		fv, sv := full.Slice()[i], sampled.Slice()[i]
		if fv == 0 {
			continue
		}
		if math.Abs(fv-sv)/math.Abs(fv) > 0.25 {
			t.Errorf("%s: sampled %g vs full %g", name, sv, fv)
		}
	}
}

func TestParallelApproximatesFull(t *testing.T) {
	f := smoothField(64, 64, 16, 4)
	full := ExtractFull(f)
	par := ExtractParallel(f, ParallelOptions{BlockSize: 8, Every: 2})
	for i, name := range Names() {
		fv, pv := full.Slice()[i], par.Slice()[i]
		if fv == 0 {
			continue
		}
		if math.Abs(fv-pv)/math.Abs(fv) > 0.25 {
			t.Errorf("%s: parallel %g vs full %g", name, pv, fv)
		}
	}
}

func TestParallelDeterministic(t *testing.T) {
	// Each sampled block sums into its own partial and the partials merge
	// in block order, so repeated runs give the same bits.
	f := smoothField(48, 48, 8, 5)
	a := ExtractParallel(f, ParallelOptions{Workers: 4, BlockSize: 8, Every: 2})
	b := ExtractParallel(f, ParallelOptions{Workers: 4, BlockSize: 8, Every: 2})
	if a != b {
		t.Fatalf("parallel extraction not deterministic: %+v vs %+v", a, b)
	}
}

// TestParallelWorkersBitIdentical: the features are the same bits for
// every worker count, on fields with several sampled blocks along every
// axis — where merging per-worker sums would reorder the additions.
func TestParallelWorkersBitIdentical(t *testing.T) {
	for _, c := range []struct {
		f    *field.Field
		opts ParallelOptions
	}{
		{smoothField(48, 48, 40, 6), ParallelOptions{BlockSize: 8, Every: 2}}, // 3 blocks per axis
		{roughField(140, 140, 140, 6), ParallelOptions{}},                     // 2 blocks per axis at the paper's defaults
	} {
		c.opts.Workers = 1
		one := ExtractParallel(c.f, c.opts)
		for _, w := range []int{2, 3, 4, 8} {
			c.opts.Workers = w
			if got := ExtractParallel(c.f, c.opts); got != one {
				t.Errorf("%s %dx%dx%d: %d workers %+v, 1 worker %+v", c.f.Name, c.f.Nx, c.f.Ny, c.f.Nz, w, got, one)
			}
		}
	}
}

func TestSmallAndDegenerateFields(t *testing.T) {
	// Fields too small to have interior points must not panic and must
	// still report mean/range.
	for _, dims := range [][3]int{{1, 1, 1}, {4, 4, 1}, {6, 6, 6}, {7, 1, 1}} {
		f := roughField(dims[0], dims[1], dims[2], 7)
		for _, v := range []Vector{
			ExtractFull(f),
			ExtractSampled(f, 4),
			ExtractParallel(f, ParallelOptions{}),
		} {
			if math.IsNaN(v.Mean) || math.IsNaN(v.MND) {
				t.Fatalf("dims %v: NaN features %+v", dims, v)
			}
		}
	}
}

func Test2DFieldFeatures(t *testing.T) {
	f := smoothField(64, 64, 1, 8)
	v := ExtractFull(f)
	if v.MND == 0 || v.MLD == 0 || v.MSD == 0 {
		t.Fatalf("2D features degenerate: %+v", v)
	}
	s := ExtractSampled(f, 4)
	if math.Abs(s.MND-v.MND)/v.MND > 0.3 {
		t.Fatalf("2D sampled MND %g vs full %g", s.MND, v.MND)
	}
}

func Test1DFieldFeatures(t *testing.T) {
	f := smoothField(512, 1, 1, 9)
	v := ExtractFull(f)
	if v.MND == 0 || v.MSD == 0 {
		t.Fatalf("1D features degenerate: %+v", v)
	}
}

func BenchmarkExtractFull(b *testing.B) {
	f := smoothField(64, 64, 64, 1)
	b.SetBytes(int64(f.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExtractFull(f)
	}
}

func BenchmarkExtractSampled(b *testing.B) {
	f := smoothField(64, 64, 64, 1)
	b.SetBytes(int64(f.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExtractSampled(f, 4)
	}
}

func BenchmarkExtractParallel(b *testing.B) {
	f := smoothField(64, 64, 64, 1)
	b.SetBytes(int64(f.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExtractParallel(f, ParallelOptions{})
	}
}
