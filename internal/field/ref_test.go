package field

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/iotest"

	"carol/internal/xrand"
)

// refReadRaw is ReadRaw as it stood before the strip-wise rewrite, kept
// verbatim as the oracle: one full-size byte buffer beside the field.
func refReadRaw(name string, nx, ny, nz int, r io.Reader) (*Field, error) {
	f := New(name, nx, ny, nz)
	buf := make([]byte, 4*len(f.Data))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("field: read raw: %w", err)
	}
	for i := range f.Data {
		f.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return f, nil
}

// refMinMax is minMax as it stood before the four-lane scan, kept verbatim
// as the oracle: one comparison per sample, in order.
func refMinMax(lo, hi float64, data []float32) (float64, float64) {
	for _, v := range data {
		fv := float64(v)
		if math.IsNaN(fv) {
			continue
		}
		if fv < lo {
			lo = fv
		}
		if fv > hi {
			hi = fv
		}
	}
	return lo, hi
}

// minMaxSpecials are the samples whose bits a scan could get wrong: NaNs
// of both signs, ±Inf, ±0, denormals and the finite extremes.
var minMaxSpecials = []uint32{
	0x7fc00000, 0xffc00001, 0x7f800001, // NaNs
	0x7f800000, 0xff800000, // ±Inf
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
}

// minMaxStarts are the bounds minMax widens from: MinMax's, zeros of both
// signs (a zero in data then ties them), and a finite pair inside the data.
var minMaxStarts = [][2]float64{{math.Inf(1), math.Inf(-1)}, {0, math.Copysign(0, -1)}, {math.Copysign(0, -1), 0}, {-3, 5}}

// checkMinMax holds minMax to the reference, bit for bit, from every start.
func checkMinMax(t *testing.T, data []float32) {
	t.Helper()
	for _, s := range minMaxStarts {
		gl, gh := minMax(s[0], s[1], data)
		wl, wh := refMinMax(s[0], s[1], data)
		if math.Float64bits(gl) != math.Float64bits(wl) || math.Float64bits(gh) != math.Float64bits(wh) {
			t.Fatalf("minMax(%v, %v) over %d samples %v = (%v, %v), reference (%v, %v)", s[0], s[1], len(data), data, gl, gh, wl, wh)
		}
	}
}

// TestMinMaxMatchesReference: every length 0–300, with specials sprinkled
// at every density into ordinary values of both signs — all zeros and all
// NaNs among them — scans to the reference's bits.
func TestMinMaxMatchesReference(t *testing.T) {
	rng := xrand.New(31)
	for n := 0; n <= 300; n++ {
		for _, every := range []int{1, 2, 7, 64, 1 << 30} {
			data := make([]float32, n)
			for i := range data {
				data[i] = float32(rng.Norm() * 10)
				if rng.Intn(every) == 0 {
					data[i] = math.Float32frombits(minMaxSpecials[rng.Intn(len(minMaxSpecials))])
				}
			}
			checkMinMax(t, data)
		}
		for _, bits := range minMaxSpecials {
			data := make([]float32, n)
			for i := range data {
				data[i] = math.Float32frombits(bits)
			}
			checkMinMax(t, data)
		}
	}
}

// FuzzMinMaxMatchesReference: any bytes, read as up to 300 little-endian
// float32 samples, scan to the reference's bits.
func FuzzMinMaxMatchesReference(f *testing.F) {
	for _, n := range []int{0, 1, 3, 4, 5, 8, 9, 63, 300} {
		f.Add(hostileRaw(n))
	}
	zeros := make([]byte, 4*9)
	binary.LittleEndian.PutUint32(zeros[4*6:], 0x80000000)
	f.Add(zeros)
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := min(len(raw)/4, 300)
		data := make([]float32, n)
		decodeRaw(data, raw)
		checkMinMax(t, data)
	})
}

// BenchmarkValueRange is the one pass over a 64³ field that every rel=,
// ratio= and CompressToRatio request pays: the four-lane scan beside the
// reference loop.
func BenchmarkValueRange(b *testing.B) {
	raw := hostileRaw(64 * 64 * 64)
	data := make([]float32, len(raw)/4)
	decodeRaw(data, raw)
	for i := range data {
		if math.IsNaN(float64(data[i])) || math.IsInf(float64(data[i]), 0) {
			data[i] = float32(i % 113)
		}
	}
	for name, scan := range map[string]func(lo, hi float64, data []float32) (float64, float64){"lanes": minMax, "reference": refMinMax} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			for i := 0; i < b.N; i++ {
				if lo, hi := scan(math.Inf(1), math.Inf(-1), data); !(hi > lo) {
					b.Fatalf("range [%g, %g]", lo, hi)
				}
			}
		})
	}
}

// hostileRaw is n samples' worth of raw bytes that visit what a decoder
// could mangle: NaNs with payloads (quiet and signalling), ±Inf, -0,
// denormals, and ordinary values between them.
func hostileRaw(n int) []byte {
	special := []uint32{
		0x7fc00001, 0xffc12345, 0x7f800001, 0x7fbfffff, // NaN payloads
		0x7f800000, 0xff800000, // ±Inf
		0x80000000, 0x00000000, // ∓0
		0x00000001, 0x807fffff, 0x00400000, // denormals
	}
	raw := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		bits := math.Float32bits(float32(i%251)*0.37 - 40)
		if i%5 == 0 {
			bits = special[(i/5)%len(special)]
		}
		binary.LittleEndian.PutUint32(raw[4*i:], bits)
	}
	return raw
}

var rawShapes = [][3]int{{1, 1, 1}, {4095, 1, 1}, {4096, 1, 1}, {4097, 1, 1}, {16385, 1, 1}, {40, 33, 17}, {64, 64, 64}}

func sameBits(t *testing.T, what string, got, want *Field) {
	t.Helper()
	if got.Nx != want.Nx || got.Ny != want.Ny || got.Nz != want.Nz || len(got.Data) != len(want.Data) {
		t.Fatalf("%s: shape %dx%dx%d (%d), want %dx%dx%d (%d)", what,
			got.Nx, got.Ny, got.Nz, len(got.Data), want.Nx, want.Ny, want.Nz, len(want.Data))
	}
	for i := range want.Data {
		if g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]); g != w {
			t.Fatalf("%s: sample %d = %#08x, want %#08x", what, i, g, w)
		}
	}
}

// TestReadRawMatchesReference: the strip-wise reader, through readers that
// hand out whole strips, one byte at a time and half of what was asked, and
// the in-memory DecodeRaw all produce the reference's bits.
func TestReadRawMatchesReference(t *testing.T) {
	for _, s := range rawShapes {
		raw := hostileRaw(s[0] * s[1] * s[2])
		want, err := refReadRaw("ref", s[0], s[1], s[2], bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		readers := map[string]io.Reader{
			"whole": bytes.NewReader(raw),
			"half":  iotest.HalfReader(bytes.NewReader(raw)),
		}
		if len(raw) <= 4*16385 {
			readers["bytewise"] = iotest.OneByteReader(bytes.NewReader(raw))
		}
		for name, rd := range readers {
			got, err := ReadRaw("new", s[0], s[1], s[2], rd)
			if err != nil {
				t.Fatalf("%v %s: %v", s, name, err)
			}
			sameBits(t, fmt.Sprint(s, " ", name), got, want)
		}
		sameBits(t, fmt.Sprint(s, " DecodeRaw"), DecodeRaw("mem", s[0], s[1], s[2], raw), want)
		if g, w := RawValueRange(raw), want.ValueRange(); g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Errorf("%v: RawValueRange = %g, ValueRange = %g", s, g, w)
		}
	}
}

// TestRawValueRangeFinite: on data without infinities (where the range is a
// number, not NaN) the raw scan is bit-for-bit the field's, across strip
// boundaries, and an all-NaN body reads 0 like an all-NaN field.
func TestRawValueRangeFinite(t *testing.T) {
	for _, n := range []int{1, 4095, 4096, 4097, 16385} {
		raw := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			v := float32(math.Sin(float64(i)*0.01)) * float32(i%7)
			if i%11 == 0 {
				v = float32(math.NaN())
			}
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
		}
		// The extremes sit in the last strip, which a scan that stopped early
		// would miss.
		binary.LittleEndian.PutUint32(raw[4*(n-1):], math.Float32bits(1e6))
		f := DecodeRaw("f", n, 1, 1, raw)
		if g, w := RawValueRange(raw), f.ValueRange(); math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("n=%d: RawValueRange = %g, ValueRange = %g", n, g, w)
		}
	}
	nan := make([]byte, 4*5000)
	for i := 0; i < 5000; i++ {
		binary.LittleEndian.PutUint32(nan[4*i:], 0x7fc00000)
	}
	if g := RawValueRange(nan); g != 0 {
		t.Errorf("all-NaN RawValueRange = %g, want 0", g)
	}
}

// TestReadRawShortIsUnexpectedEOF: a reader that ends inside the field —
// mid-sample, mid-strip or exactly on a strip boundary — is an error
// wrapping io.ErrUnexpectedEOF; only an empty reader is a plain io.EOF, as
// it was.
func TestReadRawShortIsUnexpectedEOF(t *testing.T) {
	raw := hostileRaw(40 * 33 * 17)
	for _, cut := range []int{1, 10, rawStrip - 1, rawStrip, rawStrip + 4, len(raw) - 1} {
		_, err := ReadRaw("short", 40, 33, 17, bytes.NewReader(raw[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := ReadRaw("empty", 40, 33, 17, bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("empty reader: err = %v, want io.EOF", err)
	}
	for _, nz := range []int{16, 18} { // a grid smaller and larger than raw
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DecodeRaw took %d bytes for a 40x33x%d grid", len(raw), nz)
				}
			}()
			DecodeRaw("mem", 40, 33, nz, raw)
		}()
	}
}

// TestReadRawAllocations pins what reading a 64³ field costs: the field's
// storage plus at most 64 KiB (it was twice the field), in three
// allocations — Field, samples, strip.
func TestReadRawAllocations(t *testing.T) {
	const n = 64
	raw := hostileRaw(n * n * n)
	rd := bytes.NewReader(raw)
	read := func() {
		rd.Reset(raw)
		if _, err := ReadRaw("a", n, n, n, rd); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, read); allocs > 3 {
		t.Errorf("ReadRaw of 64³: %v allocations, want at most 3", allocs)
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if budget := uint64(len(raw) + 64<<10); perRun > budget {
		t.Errorf("ReadRaw of 64³ allocates %d bytes, want at most %d (the field + 64 KiB)", perRun, budget)
	}
}
