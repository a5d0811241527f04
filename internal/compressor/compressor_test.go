package compressor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"carol/internal/field"
)

func TestRatio(t *testing.T) {
	f := field.New("r", 100, 1, 1) // 400 bytes
	if got := Ratio(f, make([]byte, 40)); got != 10 {
		t.Fatalf("Ratio = %g", got)
	}
	if Ratio(f, nil) != 0 {
		t.Fatal("empty stream ratio should be 0")
	}
}

func TestAbsBound(t *testing.T) {
	f := field.FromData("a", 4, 1, 1, []float32{0, 5, 10, 2})
	if got := AbsBound(f, 0.01); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("AbsBound = %g", got)
	}
	// Zero-range field falls back to the raw value.
	z := field.New("z", 4, 1, 1)
	if got := AbsBound(z, 0.01); got != 0.01 {
		t.Fatalf("zero-range AbsBound = %g", got)
	}
}

// TestAbsBoundsMatchesAbsBound: the one-scan sweep form returns, bit for
// bit, AbsBound at every bound, zero-range fields included.
func TestAbsBoundsMatchesAbsBound(t *testing.T) {
	rels := []float64{1e-4, 3.7e-3, 0.1, 0.5}
	for _, f := range []*field.Field{
		field.FromData("a", 4, 1, 1, []float32{-1.3, 5, 10.25, 2}),
		field.New("z", 4, 1, 1),
	} {
		got := AbsBounds(f, rels)
		if len(got) != len(rels) {
			t.Fatalf("%s: %d bounds for %d rels", f.Name, len(got), len(rels))
		}
		for i, rel := range rels {
			if want := AbsBound(f, rel); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s rel=%g: AbsBounds %g, AbsBound %g", f.Name, rel, got[i], want)
			}
		}
	}
}

func TestCheckBound(t *testing.T) {
	f := field.FromData("f", 3, 1, 1, []float32{1, 2, 3})
	g := field.FromData("g", 3, 1, 1, []float32{1.05, 2, 2.95})
	if err := CheckBound(f, g, 0.1); err != nil {
		t.Fatalf("within bound rejected: %v", err)
	}
	if err := CheckBound(f, g, 0.01); err == nil {
		t.Fatal("violation accepted")
	}
}

func TestMaxAbsErrAndPSNR(t *testing.T) {
	f := field.FromData("f", 4, 1, 1, []float32{0, 1, 2, 3})
	g := f.Clone()
	if MaxAbsErr(f, g) != 0 {
		t.Fatal("identical fields have nonzero error")
	}
	if !math.IsInf(PSNR(f, g), 1) {
		t.Fatal("identical fields should have infinite PSNR")
	}
	g.Data[2] += 0.5
	if got := MaxAbsErr(f, g); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("MaxAbsErr = %g", got)
	}
	p := PSNR(f, g)
	if math.IsInf(p, 0) || p < 10 || p > 40 {
		t.Fatalf("PSNR = %g", p)
	}
	// A worse reconstruction has lower PSNR.
	h := f.Clone()
	h.Data[2] += 1.5
	if PSNR(f, h) >= p {
		t.Fatal("PSNR not monotone in error")
	}
}

func TestNRMSE(t *testing.T) {
	f := field.FromData("f", 4, 1, 1, []float32{0, 2, 4, 8}) // range 8
	g := f.Clone()
	if NRMSE(f, g) != 0 {
		t.Fatal("identical fields NRMSE != 0")
	}
	for i := range g.Data {
		g.Data[i] += 0.8 // uniform offset: RMSE 0.8, range 8 -> 0.1
	}
	if got := NRMSE(f, g); math.Abs(got-0.1) > 1e-6 {
		t.Fatalf("NRMSE = %g", got)
	}
}

func TestPearson(t *testing.T) {
	f := field.FromData("f", 5, 1, 1, []float32{1, 2, 3, 4, 5})
	g := f.Clone()
	if got := Pearson(f, g); math.Abs(got-1) > 1e-9 {
		t.Fatalf("identical Pearson = %g", got)
	}
	// Perfect anti-correlation.
	h := field.FromData("h", 5, 1, 1, []float32{5, 4, 3, 2, 1})
	if got := Pearson(f, h); math.Abs(got+1) > 1e-9 {
		t.Fatalf("anti Pearson = %g", got)
	}
	// Constant reconstruction has zero variance.
	c := field.New("c", 5, 1, 1)
	if got := Pearson(f, c); got != 0 {
		t.Fatalf("constant Pearson = %g", got)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Magic: MagicSZ3, Nx: 12, Ny: 34, Nz: 5, EB: 2.5e-3}
	buf := AppendHeader([]byte{0xEE}, h) // with a prefix to keep honest
	got, rest, err := ParseHeader(buf[1:], MagicSZ3)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header round trip: %+v != %+v", got, h)
	}
	if len(rest) != 0 {
		t.Fatalf("unexpected payload remainder: %d", len(rest))
	}
}

func TestParseHeaderErrors(t *testing.T) {
	good := AppendHeader(nil, Header{Magic: MagicZFP, Nx: 2, Ny: 2, Nz: 2, EB: 0.1})
	if _, _, err := ParseHeader(good[:5], MagicZFP); err == nil {
		t.Error("short header accepted")
	}
	if _, _, err := ParseHeader(good, MagicSZx); err == nil {
		t.Error("wrong magic accepted")
	}
	badDims := AppendHeader(nil, Header{Magic: MagicZFP, Nx: 0, Ny: 2, Nz: 2, EB: 0.1})
	if _, _, err := ParseHeader(badDims, MagicZFP); err == nil {
		t.Error("zero dim accepted")
	}
	badEB := AppendHeader(nil, Header{Magic: MagicZFP, Nx: 2, Ny: 2, Nz: 2, EB: -1})
	if _, _, err := ParseHeader(badEB, MagicZFP); err == nil {
		t.Error("negative eb accepted")
	}
	huge := AppendHeader(nil, Header{Magic: MagicZFP, Nx: 1 << 20, Ny: 1 << 20, Nz: 1 << 20, EB: 0.1})
	if _, _, err := ParseHeader(huge, MagicZFP); err == nil {
		t.Error("oversized grid accepted")
	}
}

func TestValidateArgs(t *testing.T) {
	f := field.FromData("v", 2, 1, 1, []float32{1, 2})
	if err := ValidateArgs(f, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := ValidateArgs(nil, 0.1); err == nil {
		t.Error("nil field accepted")
	}
	for _, eb := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := ValidateArgs(f, eb); err == nil {
			t.Errorf("eb=%v accepted", eb)
		}
	}
	inf := field.FromData("i", 2, 1, 1, []float32{1, float32(math.Inf(-1))})
	if err := ValidateArgs(inf, 0.1); err == nil {
		t.Error("infinite sample accepted")
	}
}

// TestValidateArgsFiniteScan: the finiteness scan accepts every finite
// float32 and rejects every NaN payload and both infinities at every
// position of a field long enough to hold four 8-sample blocks, one
// 4-sample block and a 3-sample tail — each lane of each block and each
// tail slot — and at every position of fields of every length up to it.
func TestValidateArgsFiniteScan(t *testing.T) {
	finite := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
		0x00800000, 0x80800000, // ±smallest normal
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	}
	bad := []uint32{
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7fffffff, // quiet NaNs
		0x7f800001, 0xff800001, 0x7fbfffff, // signalling NaNs
	}
	const longest = 4*8 + 4 + 3
	data := make([]float32, longest)
	for i := range data {
		data[i] = math.Float32frombits(finite[i%len(finite)])
	}
	for n := 1; n <= longest; n++ {
		d := append([]float32(nil), data[:n]...)
		if err := ValidateArgs(field.FromData("finite", n, 1, 1, d), 0.1); err != nil {
			t.Fatalf("%d finite samples rejected: %v", n, err)
		}
		for _, b := range bad {
			for at := range d {
				keep := d[at]
				d[at] = math.Float32frombits(b)
				if err := ValidateArgs(field.FromData("bad", n, 1, 1, d), 0.1); !errors.Is(err, ErrNonFinite) {
					t.Errorf("sample %#08x at index %d of %d: %v, want ErrNonFinite", b, at, n, err)
				}
				d[at] = keep
			}
		}
	}
}

// BenchmarkValidateArgs is the finiteness scan every Compress runs, on a
// 64³ field. It allocates nothing.
func BenchmarkValidateArgs(b *testing.B) {
	const n = 64
	data := make([]float32, n*n*n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) * 0.01))
	}
	f := field.FromData("v", n, n, n, data)
	b.SetBytes(int64(f.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ValidateArgs(f, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	fn := func(nx, ny, nz uint16, eb float64) bool {
		h := Header{
			Magic: MagicSPERR,
			Nx:    int(nx%1000) + 1, Ny: int(ny%1000) + 1, Nz: int(nz%100) + 1,
			EB: math.Abs(eb) + 1e-9,
		}
		if math.IsInf(h.EB, 0) || math.IsNaN(h.EB) {
			return true
		}
		got, _, err := ParseHeader(AppendHeader(nil, h), MagicSPERR)
		return err == nil && got == h
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
