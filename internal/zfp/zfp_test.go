package zfp

import (
	"math"
	"testing"
	"testing/quick"

	"carol/internal/bitstream"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/xrand"
)

func newTestWriter() *bitstream.Writer { return bitstream.NewWriter(1024) }

func newTestReader(w *bitstream.Writer) *bitstream.Reader {
	return bitstream.NewReader(w.Bytes(), w.BitLen())
}

func smoothField(nx, ny, nz int, seed uint64) *field.Field {
	n := xrand.NewNoise(seed)
	f := field.New("smooth", nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				f.Set(x, y, z, float32(10*n.FBm(float64(x)/16, float64(y)/16, float64(z)/16, 4, 0.5)))
			}
		}
	}
	return f
}

func TestLiftRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 200; trial++ {
		p := make([]int32, 4)
		q := make([]int32, 4)
		for i := range p {
			p[i] = int32(rng.Intn(1<<28) - 1<<27)
			q[i] = p[i]
		}
		q[0], q[1], q[2], q[3] = fwdLift(q[0], q[1], q[2], q[3])
		q[0], q[1], q[2], q[3] = invLift(q[0], q[1], q[2], q[3])
		// ZFP's integer lifting is only approximately invertible: the
		// right shifts discard low bits (this is why guard bits exist).
		for i := range p {
			d := int64(p[i]) - int64(q[i])
			if d < -8 || d > 8 {
				t.Fatalf("lift round trip trial %d: %v != %v", trial, p, q)
			}
		}
	}
}

func TestXformRoundTrip3D(t *testing.T) {
	sh := shapes[3]
	rng := xrand.New(2)
	var blk, orig [64]int32
	for i := range blk {
		blk[i] = int32(rng.Intn(1<<26) - 1<<25)
		orig[i] = blk[i]
	}
	fwdXform(&blk, sh.size)
	invXform(&blk, sh.size)
	// Three cascaded approximate liftings: allow a few dozen LSBs of drift.
	for i := range blk {
		d := int64(blk[i]) - int64(orig[i])
		if d < -64 || d > 64 {
			t.Fatalf("xform round trip at %d: %d != %d", i, blk[i], orig[i])
		}
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	for _, v := range []int32{0, 1, -1, 1 << 20, -(1 << 20), math.MaxInt32 / 2, math.MinInt32 / 2} {
		if got := nb2int(int2nb(v)); got != v {
			t.Fatalf("negabinary(%d) -> %d", v, got)
		}
	}
}

func TestSequencyPermValid(t *testing.T) {
	for dims := 1; dims <= 3; dims++ {
		sh := shapes[dims]
		seen := make([]bool, sh.size)
		for _, p := range sh.perm {
			if p < 0 || p >= sh.size || seen[p] {
				t.Fatalf("dims=%d: invalid perm", dims)
			}
			seen[p] = true
		}
		// First entry must be the DC coefficient (index 0).
		if sh.perm[0] != 0 {
			t.Fatalf("dims=%d: perm[0] = %d", dims, sh.perm[0])
		}
	}
}

func TestPlaneCodingRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 100; trial++ {
		size := []int{4, 16, 64}[trial%3]
		u := make([]uint32, size)
		for i := range u {
			// Exponentially decaying magnitudes, like sequency-ordered data.
			shift := uint(rng.Intn(28))
			u[i] = uint32(rng.Uint64()) >> shift >> uint(i/4)
		}
		kmin := rng.Intn(8)
		w := newTestWriter()
		encodePlanes(w, u, kmin)
		r := newTestReader(w)
		got := make([]uint32, size)
		decodePlanes(r, got, kmin)
		mask := ^uint32(0) << uint(kmin)
		for i := range u {
			if got[i] != u[i]&mask {
				t.Fatalf("trial %d size %d kmin %d: coeff %d = %#x, want %#x",
					trial, size, kmin, i, got[i], u[i]&mask)
			}
		}
	}
}

func TestRoundTripBound(t *testing.T) {
	c := New()
	for _, dims := range [][3]int{{256, 1, 1}, {40, 24, 1}, {20, 16, 12}} {
		f := smoothField(dims[0], dims[1], dims[2], 4)
		for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
			eb := compressor.AbsBound(f, rel)
			stream, err := c.Compress(f, eb)
			if err != nil {
				t.Fatalf("dims=%v rel=%g: %v", dims, rel, err)
			}
			g, err := c.Decompress(stream)
			if err != nil {
				t.Fatalf("dims=%v rel=%g: %v", dims, rel, err)
			}
			if err := compressor.CheckBound(f, g, eb); err != nil {
				t.Fatalf("dims=%v rel=%g: %v (maxerr %g)", dims, rel, err, compressor.MaxAbsErr(f, g))
			}
		}
	}
}

func TestMonotoneRatio(t *testing.T) {
	c := New()
	f := smoothField(48, 48, 16, 5)
	var prev float64
	for _, rel := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		stream, err := c.Compress(f, compressor.AbsBound(f, rel))
		if err != nil {
			t.Fatal(err)
		}
		ratio := compressor.Ratio(f, stream)
		if ratio+1e-9 < prev {
			t.Fatalf("ratio decreased as eb grew: %g -> %g at rel %g", prev, ratio, rel)
		}
		prev = ratio
	}
	if prev < 4 {
		t.Fatalf("loose-bound ratio only %g", prev)
	}
}

func TestZeroField(t *testing.T) {
	c := New()
	f := field.New("zero", 64, 64, 1)
	stream, err := c.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := compressor.Ratio(f, stream); ratio < 100 {
		t.Fatalf("zero field ratio %g, want >= 100", ratio)
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
}

func TestTinyBoundRawFallbackIsLossless(t *testing.T) {
	c := New()
	f := smoothField(16, 16, 1, 6)
	stream, err := c.Compress(f, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Equalish(g, 0); err != nil {
		t.Fatalf("raw fallback not lossless: %v", err)
	}
}

func TestPartialBlocks(t *testing.T) {
	c := New()
	f := smoothField(13, 7, 5, 7) // no dimension divisible by 4
	eb := compressor.AbsBound(f, 1e-3)
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

func TestEstimateSampledBitsFullSamplingMatchesEncoder(t *testing.T) {
	c := New()
	f := smoothField(32, 32, 8, 11)
	eb := compressor.AbsBound(f, 1e-3)
	bits, sampled, total := EstimateSampledBits(f, eb, 1)
	if sampled != total {
		t.Fatalf("every=1 sampled %d of %d blocks", sampled, total)
	}
	stream, err := c.Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	payloadBits := uint64(len(stream)-25-8) * 8 // less the header and the bit length
	if bits > payloadBits || payloadBits-bits > 64 {
		t.Fatalf("estimate %d bits vs stream %d bits", bits, payloadBits)
	}
}

func TestEstimateSampledBitsSubsampling(t *testing.T) {
	f := smoothField(64, 64, 1, 12)
	eb := compressor.AbsBound(f, 1e-3)
	_, sampled, total := EstimateSampledBits(f, eb, 4)
	frac := float64(sampled) / float64(total)
	if frac > 0.2 || frac < 0.02 {
		t.Fatalf("every=4 2D sampling fraction %g, want ~1/16", frac)
	}
}

// TestSampledBlocksMatchesEstimate: the counts computed from the grid are
// the counts the sampling loop reports, for every shape and stride.
func TestSampledBlocksMatchesEstimate(t *testing.T) {
	for _, dims := range [][3]int{{611, 1, 1}, {3, 1, 1}, {53, 37, 1}, {40, 33, 17}, {16, 1, 9}, {64, 64, 64}} {
		f := field.New("grid", dims[0], dims[1], dims[2])
		for _, every := range []int{0, 1, 2, 3, 4, 8} {
			_, sampled, total := EstimateSampledBits(f, 1, every)
			if s, n := SampledBlocks(f, every); s != sampled || n != total {
				t.Errorf("%v every %d: SampledBlocks %d of %d, the loop sampled %d of %d", dims, every, s, n, sampled, total)
			}
		}
	}
}

func TestDecompressErrors(t *testing.T) {
	c := New()
	if _, err := c.Decompress(nil); err == nil {
		t.Error("nil stream accepted")
	}
	f := smoothField(8, 8, 1, 13)
	stream, err := c.Compress(f, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), stream...)
	bad[0] = 0x00
	if _, err := c.Decompress(bad); err == nil {
		t.Error("wrong magic accepted")
	}
	if _, err := c.Decompress(stream[:25]); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestQuickRoundTripBound(t *testing.T) {
	c := New()
	f := func(seed uint64, relExp uint8) bool {
		rng := xrand.New(seed)
		nx, ny, nz := rng.Intn(20)+1, rng.Intn(20)+1, rng.Intn(6)+1
		fl := field.New("q", nx, ny, nz)
		for i := range fl.Data {
			fl.Data[i] = float32(rng.Range(-50, 50))
		}
		eb := compressor.AbsBound(fl, math.Pow(10, -float64(relExp%5)-1))
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
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
