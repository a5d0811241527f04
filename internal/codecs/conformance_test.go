package codecs

import (
	"bytes"
	"testing"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/xrand"
)

// conformanceFields builds randomized 1D, 2D and 3D fields with mixed
// smooth-plus-noise content — smooth so predictive codecs exercise their
// happy paths, noisy so quantizers and outlier paths fire too.
func conformanceFields(seed uint64) []*field.Field {
	noise := xrand.NewNoise(seed)
	rng := xrand.New(seed ^ 0x9E3779B97F4A7C15)
	fill := func(f *field.Field, scale float64) *field.Field {
		for z := 0; z < f.Nz; z++ {
			for y := 0; y < f.Ny; y++ {
				for x := 0; x < f.Nx; x++ {
					v := noise.FBm(float64(x)/9, float64(y)/9, float64(z)/9, 4, 0.5)
					v += 0.05 * rng.Norm() // sub-bound jitter
					f.Set(x, y, z, float32(scale*v))
				}
			}
		}
		return f
	}
	return []*field.Field{
		fill(field.New("conf1d", 611, 1, 1), 2),
		fill(field.New("conf2d", 53, 37, 1), 5),
		fill(field.New("conf3d", 24, 20, 9), 3),
	}
}

// TestConformanceRoundTrip is the codec conformance suite: every registered
// codec (including extensions) must, for every dimensionality and error
// bound in the sweep, (a) reconstruct within the absolute bound at every
// sample, (b) recover the exact dimensions, and (c) emit byte-identical
// streams on repeated compression of the same input.
func TestConformanceRoundTrip(t *testing.T) {
	fields := conformanceFields(4242)
	rels := []float64{1e-1, 1e-2, 1e-3, 1e-4}
	for _, codec := range allExtended(t) {
		for _, f := range fields {
			for _, rel := range rels {
				eb := compressor.AbsBound(f, rel)
				stream, err := codec.Compress(f, eb)
				if err != nil {
					t.Fatalf("%s %s rel=%g: compress: %v", codec.Name(), f.Name, rel, err)
				}
				again, err := codec.Compress(f, eb)
				if err != nil {
					t.Fatalf("%s %s rel=%g: recompress: %v", codec.Name(), f.Name, rel, err)
				}
				if !bytes.Equal(stream, again) {
					t.Errorf("%s %s rel=%g: nondeterministic stream", codec.Name(), f.Name, rel)
				}
				g, err := codec.Decompress(stream)
				if err != nil {
					t.Fatalf("%s %s rel=%g: decompress: %v", codec.Name(), f.Name, rel, err)
				}
				if g.Nx != f.Nx || g.Ny != f.Ny || g.Nz != f.Nz {
					t.Fatalf("%s %s rel=%g: dims %dx%dx%d, want %dx%dx%d",
						codec.Name(), f.Name, rel, g.Nx, g.Ny, g.Nz, f.Nx, f.Ny, f.Nz)
				}
				if err := compressor.CheckBound(f, g, eb); err != nil {
					t.Errorf("%s %s rel=%g: bound violated: %v", codec.Name(), f.Name, rel, err)
				}
				if r := compressor.Ratio(f, stream); r <= 0 {
					t.Errorf("%s %s rel=%g: ratio %g", codec.Name(), f.Name, rel, r)
				}
			}
		}
	}
}

// TestConformanceDecodeDeterminism decodes the same stream twice and
// requires bit-identical reconstructions.
func TestConformanceDecodeDeterminism(t *testing.T) {
	fields := conformanceFields(777)
	for _, codec := range allExtended(t) {
		f := fields[2]
		eb := compressor.AbsBound(f, 1e-3)
		stream, err := codec.Compress(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		a, err := codec.Decompress(stream)
		if err != nil {
			t.Fatal(err)
		}
		b, err := codec.Decompress(stream)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%s: decode nondeterministic at sample %d", codec.Name(), i)
			}
		}
	}
}
