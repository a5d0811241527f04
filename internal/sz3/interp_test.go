package sz3

import (
	"fmt"
	"math"
	"testing"

	"carol/internal/field"
	"carol/internal/xrand"
)

// interpShapes are the grids the run decomposition is checked on: every
// boundary case of axisCases (one target, two, no cubic interior, a copy
// tail), primes, flat and thin grids, and the benchmark's shapes.
var interpShapes = [][3]int{
	{1, 1, 1}, {2, 1, 1}, {3, 1, 1}, {4, 1, 1}, {5, 1, 1}, {7, 1, 1}, {13, 1, 1}, {611, 1, 1},
	{2, 2, 1}, {3, 5, 1}, {1, 9, 1}, {53, 37, 1},
	{1, 1, 6}, {2, 3, 5}, {5, 3, 2}, {7, 11, 13}, {17, 1, 3}, {40, 33, 17}, {64, 64, 32},
}

// fuzzField is a smooth field with seeded white noise of amplitude rough on
// top: rough = 0 keeps every residual inside the quantizer, a large one
// pushes points out of it at tight bounds.
func fuzzField(seed uint64, nx, ny, nz int, rough float64) *field.Field {
	noise, rng := xrand.NewNoise(seed), xrand.New(seed)
	f := field.New("fuzz", nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := 5*noise.FBm(float64(x)/9, float64(y)/9, float64(z)/9, 3, 0.5) + rough*rng.Range(-1, 1)
				f.Set(x, y, z, float32(v))
			}
		}
	}
	return f
}

// boundFor maps sel to a bound between 1e-7 and 10 times the value range.
func boundFor(f *field.Field, sel uint8) float64 {
	lo, hi := f.Data[0], f.Data[0]
	for _, v := range f.Data {
		lo, hi = min(lo, v), max(hi, v)
	}
	r := float64(hi) - float64(lo)
	if r == 0 {
		r = 1
	}
	return r * math.Pow(10, -7+8*float64(sel)/255)
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameCodes(t *testing.T, what string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d codes, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func sameSamples(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// poison fills a scratch set with values no traversal may pick up: the
// arrays are never cleared between calls, so whatever a call reads it must
// have written first.
func poison(s *scratch, n int) {
	s.recon = make([]float64, n)
	for i := range s.recon {
		s.recon[i] = math.NaN()
	}
	s.codes = make([]uint32, n)
	for i := range s.codes {
		s.codes[i] = 0xDEADBEEF
	}
	s.outliers = append(s.outliers[:0], float32(math.Inf(1)))
}

// checkInterpMatchesReference runs the run-based encoder, decoder and
// surrogate beside the closure-per-point ones of ref_test.go and demands the
// same codes, the same raw-stored samples and the same reconstruction, bit
// for bit, then the same field out of the whole codec.
func checkInterpMatchesReference(t *testing.T, f *field.Field, eb float64, mode Mode) {
	t.Helper()
	nx, ny, nz, n := f.Nx, f.Ny, f.Nz, f.Len()
	anch, codes, outliers, recon := refEncode(f, eb, mode)
	nAnchors := mode.anchors()
	if len(anch) != nAnchors || nAnchors == 1 && anch[0] != f.Data[0] {
		t.Fatalf("reference stores anchors %v, want the %d at the origin", anch, nAnchors)
	}

	var s scratch
	poison(&s, n)
	s.encode(f, eb, mode)
	sameCodes(t, "encode codes", s.codes, codes)
	sameSamples(t, "encode outliers", s.outliers, outliers)
	sameBits(t, "encode recon", s.recon, recon)

	want, err := refDecode(nx, ny, nz, eb, mode, anch, codes, outliers)
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	sameBits(t, "reference decode vs encode", want, recon)
	var d scratch
	poison(&d, n)
	d.outliers = append(d.outliers[:0], outliers...)
	d.begin(n, nAnchors, eb)
	copy(d.codes, codes)
	if !d.decode(nx, ny, nz, mode, f.Data[0]) {
		t.Fatalf("decode consumed %d of %d outliers", d.oi, len(outliers))
	}
	sameBits(t, "decode recon", d.recon, want)

	if mode == ModeInterpolation {
		sameCodes(t, "LastLevelCodes", LastLevelCodes(f, eb), refLastLevelCodes(f, eb))
	}

	stream, err := NewMode(mode).Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New().Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want {
		if math.Float32bits(g.Data[i]) != math.Float32bits(float32(v)) {
			t.Fatalf("decompressed sample %d = %v, want %v", i, g.Data[i], float32(v))
		}
	}
}

func TestInterpMatchesReference(t *testing.T) {
	for i, sh := range interpShapes {
		for _, sel := range []uint8{0, 60, 130, 200, 255} {
			for _, rough := range []float64{0, 4} {
				f := fuzzField(uint64(i), sh[0], sh[1], sh[2], rough)
				checkInterpMatchesReference(t, f, boundFor(f, sel), ModeInterpolation)
				if sh[0]*sh[1]*sh[2] <= 1<<12 {
					checkInterpMatchesReference(t, f, boundFor(f, sel), ModeLorenzo)
				}
			}
		}
	}
}

// TestInterpHitsOutliersAndCopies: the cases the shapes and bounds above are
// chosen for do occur — a tight bound on rough data stores samples raw, and
// a loose one still decodes through every run kind.
func TestInterpHitsOutliersAndCopies(t *testing.T) {
	f := fuzzField(3, 40, 33, 17, 4)
	var s scratch
	s.encode(f, boundFor(f, 0), ModeInterpolation)
	if len(s.outliers) == 0 {
		t.Error("no outliers at 1e-7 of the range on rough data")
	}
	kinds := map[runKind]int{}
	for st := anchorStride(f.Nx, f.Ny, f.Nz); st >= 1; st /= 2 {
		levelRuns(f.Nx, f.Ny, f.Nz, st, func(kind runKind, i, step, d, count int) { kinds[kind] += count })
	}
	if kinds[runCubic] == 0 || kinds[runLinear] == 0 || kinds[runCopy] == 0 {
		t.Errorf("run kinds visited: %v", kinds)
	}
}

// FuzzInterpMatchesReference is the differential fuzzer behind "every stream
// byte-identical": any grid up to 2^16 samples (and 64×64×32), bounds from
// 1e-7 to 10 times the range, smooth to rough, both predictors.
func FuzzInterpMatchesReference(f *testing.F) {
	for i, sh := range interpShapes {
		f.Add(uint64(i), uint16(sh[0]-1), uint16(sh[1]-1), uint16(sh[2]-1), uint8(i*13), uint8(i%3), i%4 == 3)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nx16, ny16, nz16 uint16, sel, rough uint8, lorenzo bool) {
		nx, ny, nz := int(nx16%700)+1, int(ny16%80)+1, int(nz16%64)+1
		if nx*ny*nz > 1<<16 && [3]int{nx, ny, nz} != [3]int{64, 64, 32} {
			t.Skip()
		}
		mode := ModeInterpolation
		if lorenzo {
			mode = ModeLorenzo
		}
		fld := fuzzField(seed, nx, ny, nz, float64(rough%8))
		checkInterpMatchesReference(t, fld, boundFor(fld, sel), mode)
	})
}

// TestSampledResidualsMatchReference: every residual SampledResiduals
// returns is data − prediction at the point the run walk samples, with the
// prediction the reference traversal makes from the original samples, and
// every run gives its first point and every residualEvery-th after it.
func TestSampledResidualsMatchReference(t *testing.T) {
	for _, d := range interpShapes {
		f := fuzzField(uint64(d[0]*d[1]+d[2]), d[0], d[1], d[2], 0.1)
		data := make([]float64, len(f.Data))
		for i, v := range f.Data {
			data[i] = float64(v)
		}
		targets := make(map[int]target)
		forEachTarget(f.Nx, f.Ny, f.Nz, anchorStride(f.Nx, f.Ny, f.Nz), func(t target) {
			targets[(t.z*f.Ny+t.y)*f.Nx+t.x] = t
		})
		var want []float32
		for s := anchorStride(f.Nx, f.Ny, f.Nz); s >= 1; s /= 2 {
			levelRuns(f.Nx, f.Ny, f.Nz, s, func(_ runKind, i, step, _, count int) {
				for j := 0; j < count; j += residualEvery {
					at := i + j*step
					want = append(want, float32(data[at]-predict(data, f.Nx, f.Ny, f.Nz, targets[at])))
				}
			})
		}
		sameSamples(t, fmt.Sprintf("%v residuals", d), SampledResiduals(f), want)
	}
}
