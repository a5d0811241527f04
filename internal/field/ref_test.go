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
