package sz3

import (
	"math"
	"testing"
	"testing/quick"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/xrand"
)

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

// TestTraversalCoversAllNonAnchors is the key structural invariant: the
// multi-level traversal must visit every point that is not on the anchor
// grid exactly once — and the runs must do so in the order, and with the
// prediction case, of the per-point reference traversal.
func TestTraversalCoversAllNonAnchors(t *testing.T) {
	for _, dims := range append([][3]int{{17, 1, 1}, {16, 9, 1}, {8, 7, 5}, {33, 32, 3}}, interpShapes...) {
		nx, ny, nz := dims[0], dims[1], dims[2]
		stride0 := anchorStride(nx, ny, nz)
		type visit struct {
			idx  int
			kind runKind
		}
		var want, got []visit
		forEachTarget(nx, ny, nz, stride0, func(tg target) {
			// The case predict picks: which neighbours are on the grid.
			c, n := [3]int{tg.x, tg.y, tg.z}[tg.axis], dims[tg.axis]
			kind := runCopy
			switch {
			case c-3*tg.stride >= 0 && c+3*tg.stride < n:
				kind = runCubic
			case c+tg.stride < n:
				kind = runLinear
			}
			want = append(want, visit{(tg.z*ny+tg.y)*nx + tg.x, kind})
		})
		visited := make([]int, nx*ny*nz)
		for s := stride0; s >= 1; s /= 2 {
			levelRuns(nx, ny, nz, s, func(kind runKind, i, step, d, count int) {
				for ; count > 0; count-- {
					visited[i]++
					got = append(got, visit{i, kind})
					i += step
				}
			})
		}
		if len(got) != len(want) {
			t.Fatalf("dims %v: %d points in runs, %d in the reference traversal", dims, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dims %v: visit %d is %+v, reference %+v", dims, i, got[i], want[i])
			}
		}
		a2 := 2 * stride0
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					idx := (z*ny+y)*nx + x
					isAnchor := x%a2 == 0 && y%a2 == 0 && z%a2 == 0
					want := 1
					if isAnchor {
						want = 0
					}
					if visited[idx] != want {
						t.Fatalf("dims %v: point (%d,%d,%d) visited %d times, want %d",
							dims, x, y, z, visited[idx], want)
					}
				}
			}
		}
		if len(got) != nx*ny*nz-ModeInterpolation.anchors() {
			t.Fatalf("dims %v: %d predicted points, want all but the origin", dims, len(got))
		}
	}
}

func TestRoundTripBound(t *testing.T) {
	c := New()
	for _, dims := range [][3]int{{100, 1, 1}, {40, 30, 1}, {20, 18, 14}} {
		f := smoothField(dims[0], dims[1], dims[2], 1)
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
	// SZ3's defining property in the paper: compression ratios far above
	// the high-throughput group on smooth fields at loose bounds.
	c := New()
	f := smoothField(64, 64, 32, 2)
	stream, err := c.Compress(f, compressor.AbsBound(f, 1e-2))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := compressor.Ratio(f, stream); ratio < 30 {
		t.Fatalf("smooth-field ratio %g, want >= 30", ratio)
	}
}

func TestMonotoneRatio(t *testing.T) {
	c := New()
	f := smoothField(48, 48, 8, 3)
	var prev float64
	for _, rel := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		stream, err := c.Compress(f, compressor.AbsBound(f, rel))
		if err != nil {
			t.Fatal(err)
		}
		ratio := compressor.Ratio(f, stream)
		if ratio+1e-9 < prev*0.98 { // tolerate flate noise
			t.Fatalf("ratio dropped as eb grew: %g -> %g at rel %g", prev, ratio, rel)
		}
		prev = ratio
	}
}

func TestConstantField(t *testing.T) {
	c := New()
	f := field.New("const", 32, 32, 8)
	for i := range f.Data {
		f.Data[i] = -2.5
	}
	stream, err := c.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := compressor.Ratio(f, stream); ratio < 100 {
		t.Fatalf("constant field ratio %g, want >= 100", ratio)
	}
	g, err := c.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := compressor.CheckBound(f, g, 1e-3); err != nil {
		t.Fatal(err)
	}
}

func TestRoughDataWithOutliers(t *testing.T) {
	// Rough data with spikes forces outlier storage; bound must still hold.
	rng := xrand.New(4)
	f := field.New("spiky", 500, 1, 1)
	for i := range f.Data {
		f.Data[i] = float32(rng.Norm())
		if rng.Float64() < 0.02 {
			f.Data[i] *= 1e6
		}
	}
	c := New()
	eb := compressor.AbsBound(f, 1e-9) // tiny bound -> residuals overflow quantizer
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

func TestSinglePointField(t *testing.T) {
	c := New()
	f := field.FromData("one", 1, 1, 1, []float32{3.14})
	stream, err := c.Compress(f, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[0] != 3.14 {
		t.Fatalf("anchor point not exact: %v", g.Data[0])
	}
}

func TestDecompressErrors(t *testing.T) {
	c := New()
	for i, s := range [][]byte{nil, {1}, make([]byte, 30)} {
		if _, err := c.Decompress(s); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	f := smoothField(16, 16, 1, 5)
	stream, err := c.Compress(f, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), stream...)
	bad[0] = 0x00
	if _, err := c.Decompress(bad); err == nil {
		t.Error("wrong magic accepted")
	}
	if _, err := c.Decompress(stream[:len(stream)/2]); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestLastLevelCodesCount(t *testing.T) {
	f := smoothField(21, 17, 9, 6)
	codes := LastLevelCodes(f, compressor.AbsBound(f, 1e-3))
	// Count stride-1 targets directly.
	want := 0
	forEachTargetLevel(f.Nx, f.Ny, f.Nz, 1, func(target) { want++ })
	if len(codes) != want {
		t.Fatalf("LastLevelCodes returned %d codes, want %d", len(codes), want)
	}
	// Finest level covers most points: at least half for 3D data.
	if want < f.Len()/2 {
		t.Fatalf("last level has %d of %d points", want, f.Len())
	}
}

func TestLastLevelCodesCentered(t *testing.T) {
	// On smooth data nearly all codes should sit near the zero-residual bin.
	f := smoothField(32, 32, 8, 7)
	codes := LastLevelCodes(f, compressor.AbsBound(f, 1e-2))
	center := 0
	for _, c := range codes {
		if c >= quantRadius-2 && c <= quantRadius+2 {
			center++
		}
	}
	if float64(center) < 0.8*float64(len(codes)) {
		t.Fatalf("only %d/%d codes near center", center, len(codes))
	}
}

func TestLorenzoModeRoundTripBound(t *testing.T) {
	c := NewMode(ModeLorenzo)
	for _, dims := range [][3]int{{100, 1, 1}, {32, 24, 1}, {18, 16, 12}} {
		f := smoothField(dims[0], dims[1], dims[2], 21)
		for _, rel := range []float64{1e-1, 1e-2, 1e-3} {
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
				t.Fatalf("dims %v rel %g: %v", dims, rel, err)
			}
		}
	}
}

func TestLorenzoStreamsDecodeWithDefaultCodec(t *testing.T) {
	// Streams are self-describing: the interpolation-mode codec must decode
	// Lorenzo-mode streams.
	f := smoothField(24, 24, 8, 22)
	eb := compressor.AbsBound(f, 1e-2)
	stream, err := NewMode(ModeLorenzo).Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New().Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := compressor.CheckBound(f, g, eb); err != nil {
		t.Fatal(err)
	}
}

func TestModeRatioComparison(t *testing.T) {
	// Both predictors must compress smooth data well; interpolation should
	// match or beat Lorenzo at loose bounds on smooth fields (the reason
	// SZ3 made it the default).
	f := smoothField(48, 48, 16, 23)
	eb := compressor.AbsBound(f, 1e-2)
	si, err := New().Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := NewMode(ModeLorenzo).Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	ri, rl := compressor.Ratio(f, si), compressor.Ratio(f, sl)
	if rl < 5 {
		t.Fatalf("Lorenzo ratio only %g", rl)
	}
	if ri < rl*0.7 {
		t.Fatalf("interpolation (%g) far behind Lorenzo (%g)", ri, rl)
	}
}

func TestQuickRoundTripBound(t *testing.T) {
	c := New()
	f := func(seed uint64, relExp uint8) bool {
		rng := xrand.New(seed)
		nx, ny, nz := rng.Intn(24)+1, rng.Intn(16)+1, rng.Intn(8)+1
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

func BenchmarkLastLevelCodes(b *testing.B) {
	f := smoothField(64, 64, 64, 1)
	eb := compressor.AbsBound(f, 1e-3)
	b.SetBytes(int64(f.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LastLevelCodes(f, eb)
	}
}
