package field

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"testing"
	"testing/iotest"

	"carol/internal/fuzzseed"
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
	0x7fc00000, 0xffc00001, 0x7f800001, 0x7fbfffff, 0xffffffff, // NaNs
	0x7f800000, 0xff800000, // ±Inf
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
}

// refScan is scan as one comparison per sample, in order: the oracle for
// the kernel and for scanLanes.
func refScan(data []float32) (lo, hi float32, nonFinite bool) {
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			nonFinite = true
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, nonFinite
}

// scanImpls are the scans held to refScan: the one minMax calls (the
// kernel on amd64) and the portable lanes, on every architecture.
var scanImpls = map[string]func([]float32) (float32, float32, bool){"scan": scan, "scanLanes": scanLanes}

// sameExtreme reports whether a scan's extreme is the reference's: the same
// bits, or a zero of either sign, since which zero came first is minMax's
// fix-up to make.
func sameExtreme(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) || got == 0 && want == 0
}

// checkScan holds every scan to the reference over data.
func checkScan(t *testing.T, data []float32) {
	t.Helper()
	wl, wh, wbad := refScan(data)
	for name, scan := range scanImpls {
		gl, gh, gbad := scan(data)
		if !sameExtreme(gl, wl) || !sameExtreme(gh, wh) || gbad != wbad {
			t.Fatalf("%s over %d samples %v = (%v, %v, %v), reference (%v, %v, %v)", name, len(data), data, gl, gh, gbad, wl, wh, wbad)
		}
	}
}

// scanSentinels fill the samples around a scanned window: reading any one
// of them moves the high extreme, the low one or the finiteness verdict.
var scanSentinels = []float32{float32(math.Inf(1)), -math.MaxFloat32, float32(math.NaN())}

// TestScanMatchesReference: over every length 0–70 (every tail past the
// 8- and 4-sample blocks), at offsets 0–3 into a larger slice whose other
// samples are sentinels, each special in every position, a NaN behind an
// extreme in its own lane and in the tail, every lane of each block all
// NaN, and all samples NaN, scan to the reference.
func TestScanMatchesReference(t *testing.T) {
	const maxLen = 70
	nan := float32(math.NaN())
	backing := make([]float32, maxLen+8)
	for _, sentinel := range scanSentinels {
		for n := 0; n <= maxLen; n++ {
			for off := 0; off <= 3; off++ {
				for i := range backing {
					backing[i] = sentinel
				}
				data := backing[off : off+n]
				for i := range data {
					data[i] = float32(i%9) - 4
				}
				checkScan(t, data)
				for _, special := range minMaxSpecials {
					for p := range data {
						keep := data[p]
						data[p] = math.Float32frombits(special)
						checkScan(t, data)
						data[p] = keep
					}
				}
				for p := range data {
					for _, q := range []int{p + 1, p + 2, p + 4, p + 8} {
						if q >= n {
							continue
						}
						for _, extreme := range []float32{math.MaxFloat32, -math.MaxFloat32} {
							behind := append([]float32(nil), data...)
							behind[p], behind[q] = extreme, nan
							checkScan(t, behind)
						}
					}
				}
				for lane := 0; lane < 8; lane++ {
					lanes := append([]float32(nil), data...)
					for i := lane; i < n; i += 8 {
						lanes[i] = nan
					}
					checkScan(t, lanes)
				}
				for i := range data {
					data[i] = nan
				}
				checkScan(t, data)
			}
		}
	}
}

// scanSeeds are FuzzScanMatchesReference's checked-in corpus: hostile
// samples at every offset, lengths on both sides of each block size, a
// window of zeros of both signs, and SZx-sized blocks (5 and 128 samples)
// whose two zeros, -0 first or +0 first, are the minimum, the maximum or
// neither, at samples 0 and 3, an order the scans' lanes lose.
func scanSeeds() [][]byte {
	var seeds [][]byte
	for i, n := range []int{0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 63, 300} {
		seeds = append(seeds, append([]byte{byte(i % 4)}, hostileRaw(n)...))
	}
	zeros := make([]byte, 1+4*11)
	binary.LittleEndian.PutUint32(zeros[1+4*9:], 0x80000000)
	seeds = append(seeds, zeros)
	for _, n := range []int{5, 128} {
		for _, first := range []uint32{0x80000000, 0x00000000} {
			for _, rest := range []float32{1, -1, 0} {
				block := make([]float32, n)
				for i := range block {
					block[i] = rest
					if rest == 0 {
						block[i] = float32(i%2*2 - 1)
					}
				}
				block[0], block[3] = math.Float32frombits(first), math.Float32frombits(first^0x80000000)
				seed := bytes.NewBuffer([]byte{0})
				_ = FromData("seed", n, 1, 1, block).WriteRaw(seed) // a bytes.Buffer write cannot fail
				seeds = append(seeds, seed.Bytes())
			}
		}
	}
	return seeds
}

// FuzzScanMatchesReference: any bytes — the first an offset 0–3 into a
// slice of sentinels, the rest up to 300 little-endian float32 samples —
// scan to the reference, and Extrema and minMax over them to their
// references' bits.
func FuzzScanMatchesReference(f *testing.F) {
	for _, s := range scanSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		off := int(raw[0] % 4)
		n := min((len(raw)-1)/4, 300)
		backing := make([]float32, n+8)
		for i := range backing {
			backing[i] = scanSentinels[i%len(scanSentinels)]
		}
		data := backing[off : off+n]
		decodeRaw(data, raw[1:])
		checkScan(t, data)
		checkExtrema(t, data)
		checkMinMax(t, data)
	})
}

// checkExtrema holds Extrema to the serial loop refScan, bit for bit with
// the first zero's sign, and its finite verdict to refScan's per-sample
// IsNaN/IsInf test.
func checkExtrema(t *testing.T, data []float32) {
	t.Helper()
	gl, gh, finite := Extrema(data)
	wl, wh, wbad := refScan(data)
	if math.Float32bits(gl) != math.Float32bits(wl) || math.Float32bits(gh) != math.Float32bits(wh) || finite == wbad {
		t.Fatalf("Extrema over %d samples %v = (%v, %v, finite %v), reference (%v, %v, finite %v)", len(data), data, gl, gh, finite, wl, wh, !wbad)
	}
}

// TestExtremaMatchesReference: on every SZx block length 1–128, with ±0,
// denormals and ±MaxFloat32 sprinkled into ordinary values — zeros of both
// signs in every order among them, as the minimum, the maximum or neither
// — and a NaN or ±Inf in every fifth block, Extrema is the serial loop's
// bits and finiteness.
func TestExtremaMatchesReference(t *testing.T) {
	specials := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, 0x007fffff, // denormals
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	}
	nonFinite := []uint32{0x7f800000, 0xff800000, 0x7fc00000, 0xffc00001, 0x7f800001}
	rng := xrand.New(7)
	for n := 1; n <= 128; n++ {
		for trial := 0; trial < 40; trial++ {
			block := make([]float32, n)
			for i := range block {
				bits := math.Float32bits(float32(rng.Float64() - 0.5))
				if rng.Intn(3) == 0 {
					bits = specials[rng.Intn(len(specials))]
				}
				if bits&0x7fffffff != 0 { // zeros keep their sign
					switch trial % 3 {
					case 0: // zero, if any, is the minimum
						bits &^= 0x80000000
					case 1: // ... the maximum
						bits |= 0x80000000
					}
				}
				block[i] = math.Float32frombits(bits)
			}
			if trial%5 == 4 {
				block[rng.Intn(n)] = math.Float32frombits(nonFinite[rng.Intn(len(nonFinite))])
			}
			checkExtrema(t, block)
		}
	}
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
// ratio= and CompressToRatio request pays: minMax through the kernel beside
// the portable lanes and the reference loop. None allocates.
func BenchmarkValueRange(b *testing.B) {
	raw := hostileRaw(64 * 64 * 64)
	data := make([]float32, len(raw)/4)
	decodeRaw(data, raw)
	for i := range data {
		if math.IsNaN(float64(data[i])) || math.IsInf(float64(data[i]), 0) {
			data[i] = float32(i % 113)
		}
	}
	lanes := func(lo, hi float64, data []float32) (float64, float64) {
		l, h, _ := scanLanes(data)
		return float64(l), float64(h)
	}
	for name, scan := range map[string]func(lo, hi float64, data []float32) (float64, float64){"scan": minMax, "lanes": lanes, "reference": refMinMax} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			b.ReportAllocs()
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

// dirtyStorage is reused storage of n samples and room for extra more, every
// one a NaN with a payload no body sample has.
func dirtyStorage(n, extra int) []float32 {
	buf := make([]float32, n, n+extra)
	whole := buf[:cap(buf)]
	for i := range whole {
		whole[i] = math.Float32frombits(0x7fa5a5a5)
	}
	return buf
}

// TestReadRawMatchesReference: the in-place reader, into fresh storage and
// into dirty reused storage of exactly and more than the field's size,
// through readers that hand out everything, one byte at a time and half of
// what was asked, and the in-memory DecodeRaw all produce the reference's
// bits. Reused storage holds the field itself.
func TestReadRawMatchesReference(t *testing.T) {
	for _, s := range rawShapes {
		n := s[0] * s[1] * s[2]
		raw := hostileRaw(n)
		want, err := refReadRaw("ref", s[0], s[1], s[2], bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		readers := map[string]func() io.Reader{
			"whole": func() io.Reader { return bytes.NewReader(raw) },
			"half":  func() io.Reader { return iotest.HalfReader(bytes.NewReader(raw)) },
		}
		if len(raw) <= 4*16385 {
			readers["bytewise"] = func() io.Reader { return iotest.OneByteReader(bytes.NewReader(raw)) }
		}
		for name, rd := range readers {
			got, err := ReadRaw("new", s[0], s[1], s[2], rd())
			if err != nil {
				t.Fatalf("%v %s: %v", s, name, err)
			}
			sameBits(t, fmt.Sprint(s, " ", name), got, want)
			for _, extra := range []int{0, 5} {
				buf := dirtyStorage(n, extra)
				got, err := ReadRawInto("reused", s[0], s[1], s[2], rd(), buf[:0]) // capacity is what counts
				if err != nil {
					t.Fatalf("%v %s reused+%d: %v", s, name, extra, err)
				}
				sameBits(t, fmt.Sprint(s, " ", name, " reused+", extra), got, want)
				if &got.Data[0] != &buf[0] {
					t.Errorf("%v %s reused+%d: the field is not in the storage it was given", s, name, extra)
				}
			}
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

// refWriteRaw is WriteRaw as it stood before the one-Write path, kept
// verbatim as the oracle: a 16 KiB strip encoded sample by sample.
func refWriteRaw(f *Field, w io.Writer) error {
	buf := make([]byte, 4*4096)
	i := 0
	for i < len(f.Data) {
		n := min(4096, len(f.Data)-i)
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(f.Data[i+j]))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return fmt.Errorf("field: write raw: %w", err)
		}
		i += n
	}
	return nil
}

// TestWriteRawMatchesReference: WriteRaw writes the reference's bytes for
// every shape, across strip boundaries. writeRawStrips, the big-endian
// host's path, writes each of those words byte-reversed on a little-endian
// host, which is the reference's bytes on a host of the other order; and a
// failing writer's error comes back wrapped on both paths.
func TestWriteRawMatchesReference(t *testing.T) {
	for _, s := range rawShapes {
		n := s[0] * s[1] * s[2]
		f := DecodeRaw("f", s[0], s[1], s[2], hostileRaw(n))
		var want, got, strips bytes.Buffer
		if err := refWriteRaw(f, &want); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteRaw(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%v: WriteRaw differs from the reference", s)
		}
		if err := writeRawStrips(&strips, f.Data); err != nil {
			t.Fatal(err)
		}
		if strips.Len() != want.Len() {
			t.Fatalf("%v: writeRawStrips wrote %d bytes, want %d", s, strips.Len(), want.Len())
		}
		for i := 0; i < n; i++ {
			g, w := binary.LittleEndian.Uint32(strips.Bytes()[4*i:]), binary.LittleEndian.Uint32(want.Bytes()[4*i:])
			if littleEndian {
				w = bits.ReverseBytes32(w)
			}
			if g != w {
				t.Fatalf("%v: writeRawStrips sample %d = %#08x, want %#08x", s, i, g, w)
			}
		}
	}
	f := DecodeRaw("f", 5, 1, 1, hostileRaw(5))
	broken := errors.New("broken pipe")
	for name, write := range map[string]func(io.Writer) error{
		"WriteRaw":       f.WriteRaw,
		"writeRawStrips": func(w io.Writer) error { return writeRawStrips(w, f.Data) },
	} {
		if err := write(failingWriter{broken}); !errors.Is(err, broken) {
			t.Errorf("%s into a failing writer: %v, want it wrapped", name, err)
		}
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// TestWriteRawAllocations: on a little-endian host writing a 64³ field
// allocates nothing; the samples' own bytes go out in one Write.
func TestWriteRawAllocations(t *testing.T) {
	if !littleEndian {
		t.Skip("a big-endian host writes through a swapped strip")
	}
	f := DecodeRaw("f", 64, 64, 64, hostileRaw(64*64*64))
	w := &countingWriter{}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := f.WriteRaw(w); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("WriteRaw of 64³: %v allocations, want 0", allocs)
	}
	if w.writes != 11 || w.bytes != 11*f.SizeBytes() {
		t.Errorf("11 WriteRaw calls made %d writes of %d bytes, want 11 of %d", w.writes, w.bytes, 11*f.SizeBytes())
	}
}

type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestReadRawShortIsUnexpectedEOF: a reader that ends inside the field —
// mid-sample or on a sample boundary — is an error wrapping
// io.ErrUnexpectedEOF; only an empty reader is a plain io.EOF. Both read the
// reference's error, into fresh storage and into reused storage.
func TestReadRawShortIsUnexpectedEOF(t *testing.T) {
	const n = 40 * 33 * 17
	raw := hostileRaw(n)
	for _, cut := range []int{0, 1, 10, 4<<10 - 1, 4 << 10, 4<<10 + 4, len(raw) - 1} {
		wantErr := io.ErrUnexpectedEOF
		if cut == 0 {
			wantErr = io.EOF
		}
		_, ref := refReadRaw("ref", 40, 33, 17, bytes.NewReader(raw[:cut]))
		for _, buf := range [][]float32{nil, dirtyStorage(n, 0)} {
			_, err := ReadRawInto("short", 40, 33, 17, bytes.NewReader(raw[:cut]), buf)
			if !errors.Is(err, wantErr) || fmt.Sprint(err) != fmt.Sprint(ref) {
				t.Errorf("cut at %d, reused=%v: err = %v, want %v as the reference's %v", cut, buf != nil, err, wantErr, ref)
			}
		}
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

// TestSwapWordsIsBigEndian: swapWords turns every sample the host's byte
// view read into the sample the opposite byte order reads from the same
// bytes, so the big-endian branch of the in-place read is checked on a
// little-endian host too.
func TestSwapWordsIsBigEndian(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 4097} {
		raw := hostileRaw(n)
		samples := make([]float32, n)
		copy(rawBytes(samples), raw)
		swapWords(samples)
		other := binary.ByteOrder(binary.BigEndian)
		if !littleEndian {
			other = binary.LittleEndian
		}
		for i, v := range samples {
			if got, want := math.Float32bits(v), other.Uint32(raw[4*i:]); got != want {
				t.Fatalf("n=%d: sample %d = %#08x, want %#08x", n, i, got, want)
			}
		}
	}
}

// TestReadRawAllocations pins what reading a 64³ field costs: its storage
// plus at most 1 KiB (it was twice the field, then the field + 64 KiB), in
// two allocations — Field and samples — and into reused storage just the
// Field.
func TestReadRawAllocations(t *testing.T) {
	const n = 64
	raw := hostileRaw(n * n * n)
	rd := bytes.NewReader(raw)
	reuse := make([]float32, n*n*n)
	cost := func(buf []float32) (allocs float64, perRun uint64) {
		read := func() {
			rd.Reset(raw)
			if _, err := ReadRawInto("a", n, n, n, rd, buf); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(10, read)
		const runs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if allocs, perRun := cost(nil); allocs > 2 || perRun > uint64(len(raw)+1<<10) {
		t.Errorf("ReadRaw of 64³: %v allocations of %d bytes, want at most 2 and the field + 1 KiB (%d)", allocs, perRun, len(raw)+1<<10)
	}
	if allocs, perRun := cost(reuse); allocs > 1 || perRun > 1<<10 {
		t.Errorf("ReadRawInto of 64³ into reused storage: %v allocations of %d bytes, want at most 1 and 1 KiB", allocs, perRun)
	}
}

// rawCase is one FuzzReadRawMatchesReference input: a grid, a body cut at
// some byte, and reused storage of some capacity, or none.
type rawCase struct {
	nx, ny, nz int
	body       []byte
	reuse      []float32
}

// parseRawCase reads a rawCase from fuzz bytes: dims from the first three
// (up to 24×6×4), a cut from the next two (0xffff: none), a storage byte
// (0: fresh, else capacity grid-3+byte%8, dirty), then the body.
func parseRawCase(data []byte) (rawCase, bool) {
	if len(data) < 6 {
		return rawCase{}, false
	}
	c := rawCase{nx: int(data[0]%24) + 1, ny: int(data[1]%6) + 1, nz: int(data[2]%4) + 1, body: data[6:]}
	if cut := int(binary.LittleEndian.Uint16(data[3:])); cut < len(c.body) {
		c.body = c.body[:cut]
	}
	if data[5] != 0 {
		c.reuse = dirtyStorage(max(0, c.nx*c.ny*c.nz-3+int(data[5]%8)), 0)
	}
	return c, true
}

// rawSeeds are FuzzReadRawMatchesReference's checked-in corpus: exact, long,
// cut mid-sample, cut on a sample, empty, into fresh, short, exact and
// roomy reused storage.
func rawSeeds() [][]byte {
	seed := func(nx, ny, nz byte, cut uint16, reuse byte, body []byte) []byte {
		s := []byte{nx - 1, ny - 1, nz - 1, byte(cut), byte(cut >> 8), reuse}
		return append(s, body...)
	}
	return [][]byte{
		seed(8, 4, 2, 0xffff, 0, hostileRaw(64)),
		seed(8, 4, 2, 0xffff, 3, hostileRaw(64)),
		seed(8, 4, 2, 0xffff, 7, hostileRaw(70)),
		seed(24, 6, 4, 0xffff, 1, hostileRaw(576)),
		seed(24, 6, 4, 1001, 5, hostileRaw(576)),
		seed(5, 1, 1, 8, 4, hostileRaw(5)),
		seed(3, 3, 1, 0, 6, hostileRaw(9)),
		seed(1, 1, 1, 0xffff, 2, nil),
	}
}

// FuzzReadRawMatchesReference: any body for any grid, cut anywhere, read
// into fresh or dirty reused storage, gives the reference's samples or the
// reference's error; reused storage that holds the field holds it in place.
func FuzzReadRawMatchesReference(f *testing.F) {
	for _, s := range rawSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := parseRawCase(data)
		if !ok {
			return
		}
		want, werr := refReadRaw("ref", c.nx, c.ny, c.nz, bytes.NewReader(c.body))
		got, err := ReadRawInto("fuzz", c.nx, c.ny, c.nz, bytes.NewReader(c.body), c.reuse)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%dx%dx%d, %d-byte body: err = %v, reference %v", c.nx, c.ny, c.nz, len(c.body), err, werr)
		}
		if werr != nil {
			return
		}
		sameBits(t, "fuzz", got, want)
		if cap(c.reuse) >= len(want.Data) && &got.Data[0] != &c.reuse[:1][0] {
			t.Fatal("the field is not in the reused storage that could hold it")
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus when
// CAROL_WRITE_CORPUS is set; otherwise it asserts the corpus exists.
func TestWriteFuzzCorpus(t *testing.T) {
	fuzzseed.Check(t, ".", map[string][][]byte{
		"FuzzReadRawMatchesReference": rawSeeds(),
		"FuzzScanMatchesReference":    scanSeeds(),
	})
}
