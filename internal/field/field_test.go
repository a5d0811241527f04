package field

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"carol/internal/xrand"
)

func ramp(nx, ny, nz int) *Field {
	f := New("ramp", nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = float32(i)
	}
	return f
}

func TestNewAndIndexing(t *testing.T) {
	f := New("t", 4, 3, 2)
	if f.Len() != 24 || f.SizeBytes() != 96 {
		t.Fatalf("Len=%d SizeBytes=%d", f.Len(), f.SizeBytes())
	}
	f.Set(1, 2, 1, 42)
	if f.At(1, 2, 1) != 42 {
		t.Fatal("Set/At mismatch")
	}
	if f.Index(1, 2, 1) != (1*3+2)*4+1 {
		t.Fatalf("Index = %d", f.Index(1, 2, 1))
	}
}

func TestDims(t *testing.T) {
	cases := []struct {
		nx, ny, nz, want int
	}{{8, 1, 1, 1}, {8, 4, 1, 2}, {8, 4, 2, 3}, {1, 1, 1, 1}}
	for _, c := range cases {
		if got := New("d", c.nx, c.ny, c.nz).Dims(); got != c.want {
			t.Errorf("Dims(%dx%dx%d) = %d, want %d", c.nx, c.ny, c.nz, got, c.want)
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero dim")
		}
	}()
	New("bad", 0, 1, 1)
}

func TestFromDataLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched data length")
		}
	}()
	FromData("bad", 2, 2, 2, make([]float32, 7))
}

func TestMinMaxMeanRange(t *testing.T) {
	f := FromData("m", 5, 1, 1, []float32{2, -3, 7, 0, 4})
	lo, hi := f.MinMax()
	if lo != -3 || hi != 7 {
		t.Fatalf("MinMax = (%v, %v)", lo, hi)
	}
	if f.ValueRange() != 10 {
		t.Fatalf("ValueRange = %v", f.ValueRange())
	}
	if got := f.Mean(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestMinMaxSkipsNaN(t *testing.T) {
	f := FromData("n", 3, 1, 1, []float32{float32(math.NaN()), 1, 5})
	lo, hi := f.MinMax()
	if lo != 1 || hi != 5 {
		t.Fatalf("MinMax with NaN = (%v, %v)", lo, hi)
	}
}

func TestMinMaxAllNaN(t *testing.T) {
	nan := float32(math.NaN())
	f := FromData("n", 2, 1, 1, []float32{nan, nan})
	lo, hi := f.MinMax()
	if lo != 0 || hi != 0 {
		t.Fatalf("all-NaN MinMax = (%v, %v), want (0,0)", lo, hi)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := ramp(4, 2, 2)
	g := f.Clone()
	g.Data[0] = 999
	if f.Data[0] == 999 {
		t.Fatal("Clone shares storage")
	}
}

func TestSampleStride3D(t *testing.T) {
	f := ramp(8, 8, 8)
	s := f.SampleStride(4)
	if s.Nx != 2 || s.Ny != 2 || s.Nz != 2 {
		t.Fatalf("dims = %dx%dx%d", s.Nx, s.Ny, s.Nz)
	}
	if s.At(0, 0, 0) != f.At(0, 0, 0) || s.At(1, 1, 1) != f.At(4, 4, 4) {
		t.Fatal("stride sample picked wrong points")
	}
}

func TestSampleStride2DKeepsZ(t *testing.T) {
	f := ramp(8, 8, 1)
	s := f.SampleStride(2)
	if s.Nz != 1 || s.Nx != 4 || s.Ny != 4 {
		t.Fatalf("2D stride dims = %dx%dx%d", s.Nx, s.Ny, s.Nz)
	}
}

func TestSampleStrideOneIsIdentity(t *testing.T) {
	f := ramp(5, 4, 3)
	s := f.SampleStride(1)
	if err := f.Equalish(s, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSampleBlocksKeepsRightFraction(t *testing.T) {
	f := ramp(64, 64, 1)
	s := f.SampleBlocks(BlockSpec{Size: 8, Every: 2})
	// 2D: keep one 8x8 block per 16x16 tile -> 1/4 of the data.
	want := f.Len() / 4
	if s.Len() != want {
		t.Fatalf("kept %d samples, want %d", s.Len(), want)
	}
}

func TestSampleBlocksFirstBlockContents(t *testing.T) {
	f := ramp(8, 8, 8)
	s := f.SampleBlocks(BlockSpec{Size: 2, Every: 4})
	// First block is the 2x2x2 corner at origin.
	wantFirst := []float32{
		f.At(0, 0, 0), f.At(1, 0, 0), f.At(0, 1, 0), f.At(1, 1, 0),
		f.At(0, 0, 1), f.At(1, 0, 1), f.At(0, 1, 1), f.At(1, 1, 1),
	}
	for i, w := range wantFirst {
		if s.Data[i] != w {
			t.Fatalf("block sample %d = %v, want %v", i, s.Data[i], w)
		}
	}
}

func TestSamplingFraction(t *testing.T) {
	f := ramp(64, 64, 64)
	got := f.SamplingFraction(BlockSpec{Size: 8, Every: 2})
	if math.Abs(got-1.0/8) > 1e-9 {
		t.Fatalf("fraction = %v, want 1/8", got)
	}
}

func TestRawRoundTrip(t *testing.T) {
	f := ramp(6, 5, 4)
	f.Data[3] = -1.5
	var buf bytes.Buffer
	if err := f.WriteRaw(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != f.SizeBytes() {
		t.Fatalf("raw size = %d, want %d", buf.Len(), f.SizeBytes())
	}
	g, err := ReadRaw("back", 6, 5, 4, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Equalish(g, 0); err != nil {
		t.Fatal(err)
	}
}

func TestParseDims(t *testing.T) {
	cases := []struct {
		in         string
		nx, ny, nz int
		wantErr    bool
	}{
		{"64", 64, 1, 1, false},
		{"64x32", 64, 32, 1, false},
		{"64x32x16", 64, 32, 16, false},
		{"64X32X16", 64, 32, 16, false},
		{"", 0, 0, 0, true},
		{"axb", 0, 0, 0, true},
		{"4x0", 0, 0, 0, true},
		{"0", 0, 0, 0, true},
		{"4x", 0, 0, 0, true},
		{"1x2x3x4", 0, 0, 0, true},
		{"-4", 0, 0, 0, true},
	}
	for _, c := range cases {
		nx, ny, nz, err := ParseDims(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseDims(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDims(%q): %v", c.in, err)
			continue
		}
		if nx != c.nx || ny != c.ny || nz != c.nz {
			t.Errorf("ParseDims(%q) = %d,%d,%d", c.in, nx, ny, nz)
		}
	}
}

func TestReadRawShort(t *testing.T) {
	if _, err := ReadRaw("x", 4, 4, 4, bytes.NewReader(make([]byte, 10))); err == nil {
		t.Fatal("expected error on short read")
	}
}

func TestEqualishDetectsDifference(t *testing.T) {
	f := ramp(4, 1, 1)
	g := f.Clone()
	g.Data[2] += 0.5
	if err := f.Equalish(g, 0.4); err == nil {
		t.Fatal("Equalish missed a difference")
	}
	if err := f.Equalish(g, 0.6); err != nil {
		t.Fatalf("Equalish too strict: %v", err)
	}
}

func TestEqualishDimMismatch(t *testing.T) {
	if err := ramp(4, 1, 1).Equalish(ramp(5, 1, 1), 1); err == nil {
		t.Fatal("Equalish accepted mismatched dims")
	}
}

// Property: strided sampling always keeps ceil(n/stride) points per dim.
func TestQuickStrideCount(t *testing.T) {
	f := func(nx8, stride8 uint8) bool {
		nx := int(nx8%60) + 1
		stride := int(stride8%7) + 1
		f := ramp(nx, 1, 1)
		s := f.SampleStride(stride)
		return s.Len() == (nx+stride-1)/stride
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: block sampling never returns more points than the original and
// every returned point exists in the original data.
func TestQuickBlockSubset(t *testing.T) {
	f := func(seed uint64, size8, every8 uint8) bool {
		rng := xrand.New(seed)
		nx, ny, nz := rng.Intn(20)+1, rng.Intn(20)+1, rng.Intn(8)+1
		fl := New("q", nx, ny, nz)
		present := map[float32]bool{}
		for i := range fl.Data {
			fl.Data[i] = float32(rng.Float64())
			present[fl.Data[i]] = true
		}
		s := fl.SampleBlocks(BlockSpec{Size: int(size8%6) + 1, Every: int(every8%4) + 1})
		if s.Len() > fl.Len() {
			return false
		}
		for _, v := range s.Data {
			if !present[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSampleBlocks(b *testing.B) {
	f := ramp(128, 128, 64)
	spec := BlockSpec{Size: 16, Every: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.SampleBlocks(spec)
	}
}
