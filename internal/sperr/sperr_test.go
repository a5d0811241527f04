package sperr

import (
	"math"
	"testing"
	"testing/quick"

	"carol/internal/bitstream"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/xrand"
)

func newWriter() *bitstream.Writer { return bitstream.NewWriter(4096) }

func newReader(w *bitstream.Writer) *bitstream.Reader {
	return bitstream.NewReader(w.Bytes(), w.BitLen())
}

func smoothField(nx, ny, nz int, seed uint64) *field.Field {
	n := xrand.NewNoise(seed)
	f := field.New("smooth", nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				f.Set(x, y, z, float32(5*n.FBm(float64(x)/20, float64(y)/20, float64(z)/20, 3, 0.5)))
			}
		}
	}
	return f
}

func TestRegionChildrenPartition(t *testing.T) {
	cases := []region{
		{0, 0, 0, 8, 8, 8}, {0, 0, 0, 7, 5, 3}, {2, 3, 4, 5, 1, 1},
		{0, 0, 0, 2, 1, 1}, {1, 1, 1, 3, 3, 3},
	}
	for _, r := range cases {
		var kids [8]region
		children := r.children(kids[:0])
		// Children must tile the parent exactly.
		seen := map[[3]int]bool{}
		total := 0
		for _, c := range children {
			if c.w < 1 || c.h < 1 || c.d < 1 {
				t.Fatalf("region %v: degenerate child %v", r, c)
			}
			total += c.w * c.h * c.d
			for z := c.z; z < c.z+c.d; z++ {
				for y := c.y; y < c.y+c.h; y++ {
					for x := c.x; x < c.x+c.w; x++ {
						key := [3]int{x, y, z}
						if seen[key] {
							t.Fatalf("region %v: point %v covered twice", r, key)
						}
						seen[key] = true
					}
				}
			}
		}
		if total != r.w*r.h*r.d {
			t.Fatalf("region %v: children cover %d points, want %d", r, total, r.w*r.h*r.d)
		}
	}
}

func TestSPECKRoundTripAccuracy(t *testing.T) {
	// Coding enough passes must reconstruct coefficients to within the
	// final threshold.
	rng := xrand.New(1)
	nx, ny, nz := 16, 8, 4
	coeffs := make([]float64, nx*ny*nz)
	for i := range coeffs {
		coeffs[i] = rng.Norm() * math.Pow(2, float64(rng.Intn(10)))
	}
	var maxAbs float64
	for _, v := range coeffs {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	t0 := math.Pow(2, math.Floor(math.Log2(maxAbs)))
	nPasses := 14
	w := newWriter()
	encRecon := make([]float64, len(coeffs))
	new(scratch).encodeSPECK(w, encRecon, coeffs, nx, ny, nz, t0, nPasses)
	r := newReader(w)
	decRecon := make([]float64, len(coeffs))
	if err := new(scratch).decodeSPECK(r, decRecon, nx, ny, nz, t0, nPasses, false); err != nil {
		t.Fatal(err)
	}
	finalT := t0 / math.Pow(2, float64(nPasses-1))
	for i := range coeffs {
		if encRecon[i] != decRecon[i] {
			t.Fatalf("encoder/decoder reconstructions differ at %d: %g vs %g",
				i, encRecon[i], decRecon[i])
		}
		if d := math.Abs(coeffs[i] - decRecon[i]); d > finalT {
			t.Fatalf("coefficient %d error %g > final threshold %g", i, d, finalT)
		}
	}
}

func TestRoundTripBound(t *testing.T) {
	c := New()
	for _, dims := range [][3]int{{128, 1, 1}, {32, 24, 1}, {16, 16, 12}} {
		f := smoothField(dims[0], dims[1], dims[2], 2)
		for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
			eb := compressor.AbsBound(f, rel)
			stream, err := c.Compress(f, eb)
			if err != nil {
				t.Fatalf("dims %v rel %g: %v", dims, rel, err)
			}
			g, err := c.Decompress(stream)
			if err != nil {
				t.Fatalf("dims %v rel %g: %v", dims, rel, err)
			}
			if err := compressor.CheckBound(f, g, eb); err != nil {
				t.Fatalf("dims %v rel %g: %v (maxerr %g)", dims, rel, err,
					compressor.MaxAbsErr(f, g))
			}
		}
	}
}

func TestHighRatioOnSmoothData(t *testing.T) {
	c := New()
	f := smoothField(64, 64, 32, 3)
	stream, err := c.Compress(f, compressor.AbsBound(f, 1e-2))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := compressor.Ratio(f, stream); ratio < 25 {
		t.Fatalf("smooth-field ratio %g, want >= 25", ratio)
	}
}

func TestMonotoneRatio(t *testing.T) {
	c := New()
	f := smoothField(48, 48, 8, 4)
	var prev float64
	for _, rel := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		stream, err := c.Compress(f, compressor.AbsBound(f, rel))
		if err != nil {
			t.Fatal(err)
		}
		ratio := compressor.Ratio(f, stream)
		if ratio < prev*0.98 {
			t.Fatalf("ratio dropped as eb grew: %g -> %g at rel %g", prev, ratio, rel)
		}
		prev = ratio
	}
}

func TestZeroField(t *testing.T) {
	c := New()
	f := field.New("zero", 32, 32, 1)
	stream, err := c.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g.Data {
		if v != 0 {
			t.Fatalf("zero field sample %d = %v", i, v)
		}
	}
	if ratio := compressor.Ratio(f, stream); ratio < 80 {
		t.Fatalf("zero-field ratio %g", ratio)
	}
}

func TestOutlierPassCatchesSpikes(t *testing.T) {
	// A single huge spike in smooth data is the worst case for wavelet
	// truncation; the outlier pass must still guarantee the bound.
	f := smoothField(64, 32, 1, 5)
	f.Data[777] = 1e5
	c := New()
	eb := compressor.AbsBound(f, 1e-4)
	stream, err := c.Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := compressor.CheckBound(f, g, eb); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressErrors(t *testing.T) {
	c := New()
	for i, s := range [][]byte{nil, {1, 2}, make([]byte, 25)} {
		if _, err := c.Decompress(s); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	f := smoothField(16, 16, 1, 6)
	stream, err := c.Compress(f, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), stream...)
	bad[0] = 0x42
	if _, err := c.Decompress(bad); err == nil {
		t.Error("wrong magic accepted")
	}
	if _, err := c.Decompress(stream[:len(stream)/3]); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40)} {
		if got := unzig(zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) -> %d", v, got)
		}
	}
}

func TestEstimateSampledBitsTracksFullCoding(t *testing.T) {
	// The surrogate's SPECK bits on the full field should be close to the
	// bits the full encoder produces (it is the same coder); the surrogate's
	// difference comes from sampling + skipped stages, not from the coder.
	f := smoothField(32, 32, 8, 7)
	eb := compressor.AbsBound(f, 1e-3)
	bits := EstimateSampledBits(f, eb)
	if bits == 0 {
		t.Fatal("no bits estimated")
	}
	c := New()
	stream, err := c.Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	// The flate-compressed full stream should be smaller than the raw SPECK
	// bit estimate (flate + no-outlier effects), but same order of magnitude.
	streamBits := float64(len(stream) * 8)
	if float64(bits) < streamBits/20 || float64(bits) > streamBits*20 {
		t.Fatalf("estimate %d bits vs stream %g bits: out of range", bits, streamBits)
	}
}

func TestProgressiveDecoding(t *testing.T) {
	f := smoothField(48, 48, 8, 11)
	c := New()
	eb := compressor.AbsBound(f, 1e-4)
	stream, err := c.Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	// Quality must improve monotonically (within noise) with the fraction,
	// and frac=1 must match the full decode exactly.
	fracs := []float64{0.1, 0.3, 0.6, 1.0}
	var prevErr = math.Inf(1)
	for _, frac := range fracs {
		g, err := DecompressProgressive(stream, frac)
		if err != nil {
			t.Fatalf("frac %g: %v", frac, err)
		}
		e := compressor.MaxAbsErr(f, g)
		if e > prevErr*1.2 {
			t.Fatalf("quality regressed at frac %g: %g -> %g", frac, prevErr, e)
		}
		prevErr = e
	}
	full, err := c.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	last, err := DecompressProgressive(stream, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Equalish(last, 0); err != nil {
		t.Fatalf("frac=1 differs from full decode: %v", err)
	}
	// Even a small prefix should reconstruct the broad structure.
	coarse, err := DecompressProgressive(stream, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if compressor.PSNR(f, coarse) < 20 {
		t.Fatalf("15%% prefix PSNR %g dB", compressor.PSNR(f, coarse))
	}
}

func TestProgressiveValidation(t *testing.T) {
	f := smoothField(16, 16, 1, 12)
	c := New()
	stream, err := c.Compress(f, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, -0.5, 1.5} {
		if _, err := DecompressProgressive(stream, frac); err == nil {
			t.Errorf("frac %g accepted", frac)
		}
	}
}

func TestQuickRoundTripBound(t *testing.T) {
	c := New()
	f := func(seed uint64, relExp uint8) bool {
		rng := xrand.New(seed)
		nx, ny, nz := rng.Intn(20)+1, rng.Intn(12)+1, rng.Intn(6)+1
		fl := field.New("q", nx, ny, nz)
		for i := range fl.Data {
			fl.Data[i] = float32(rng.Range(-10, 10))
		}
		eb := compressor.AbsBound(fl, math.Pow(10, -float64(relExp%4)-1))
		stream, err := c.Compress(fl, eb)
		if err != nil {
			return false
		}
		g, err := c.Decompress(stream)
		if err != nil {
			return false
		}
		return compressor.CheckBound(fl, g, eb) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress(b *testing.B) {
	c := New()
	f := smoothField(64, 64, 64, 1)
	eb := compressor.AbsBound(f, 1e-3)
	b.SetBytes(int64(f.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(f, eb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	c := New()
	f := smoothField(64, 64, 64, 1)
	eb := compressor.AbsBound(f, 1e-3)
	stream, err := c.Compress(f, eb)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(f.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(stream); err != nil {
			b.Fatal(err)
		}
	}
}
