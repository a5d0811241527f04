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
	fuzzseed.Check(t, ".", map[string][][]byte{"FuzzReadRawMatchesReference": rawSeeds()})
}
