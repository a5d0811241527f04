package zfp

import (
	"errors"
	"testing"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/safedec"
	"carol/internal/safedec/safedectest"
)

// TestFixedRateHostileRate is the regression test for the unvalidated rate
// in the EB header slot: a hostile stream claiming an absurd bits-per-sample
// rate used to drive the per-block bit budget to int64 extremes. The rate
// must be validated against the 64 bits/sample physical ceiling first.
func TestFixedRateHostileRate(t *testing.T) {
	for _, rate := range []float64{1e30, 65, 1e308} {
		stream := compressor.AppendHeader(nil, compressor.Header{
			Magic: compressor.MagicZFP, Nx: 8, Ny: 1, Nz: 1, EB: rate,
		})
		stream = append(stream, make([]byte, 16)...) // bit length 0 + slack
		_, err := DecompressFixedRate(stream)
		if err == nil {
			t.Fatalf("rate %g accepted", rate)
		}
		if !errors.Is(err, compressor.ErrBadStream) {
			t.Fatalf("rate %g: err = %v, want ErrBadStream", rate, err)
		}
	}
}

// TestFixedRateLimitedRoundTrip checks the limit plumbing on the fixed-rate
// path: a valid stream decodes under default limits and is refused with
// ErrLimit under a tight element ceiling.
func TestFixedRateLimitedRoundTrip(t *testing.T) {
	f := field.New("fr", 16, 16, 1)
	for i := range f.Data {
		f.Data[i] = float32(i % 7)
	}
	stream, err := CompressFixedRate(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecompressFixedRateLimited(stream, safedec.Default())
	if err != nil {
		t.Fatal(err)
	}
	if g.Nx != 16 || g.Ny != 16 || g.Nz != 1 {
		t.Fatalf("dims %dx%dx%d", g.Nx, g.Ny, g.Nz)
	}
	safedectest.Rejects(t, 4*100, func() error {
		_, err := DecompressFixedRateLimited(stream, safedec.Limits{MaxElements: 100})
		return err
	})
}

// TestBitLengthBeyondPayloadRejected: a header-claimed bit length larger
// than the payload actually present must be rejected up front.
func TestBitLengthBeyondPayloadRejected(t *testing.T) {
	f := field.New("bl", 64, 1, 1)
	for i := range f.Data {
		f.Data[i] = float32(i)
	}
	stream, err := New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// The 8 bytes after the 25-byte header are the big-endian bit length.
	bad := append([]byte(nil), stream...)
	for i := 25; i < 33; i++ {
		bad[i] = 0xFF
	}
	if _, err := New().Decompress(bad); !errors.Is(err, compressor.ErrBadStream) {
		t.Fatalf("err = %v, want ErrBadStream", err)
	}
}
