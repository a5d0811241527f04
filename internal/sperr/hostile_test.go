package sperr

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"carol/internal/compressor"
	"carol/internal/safedec"
	"carol/internal/zpool"
)

// hostileStream builds a syntactically valid sperr stream for a 2x2x2 field
// from the payload's head fields and what follows them (outlier records,
// SPECK bit length, SPECK bytes).
func hostileStream(t testing.TB, t0 float64, nPasses byte, nOut uint32, tail []byte) []byte {
	t.Helper()
	payload := binary.LittleEndian.AppendUint64(nil, math.Float64bits(t0))
	payload = binary.LittleEndian.AppendUint32(payload, 0) // levels
	payload = append(payload, nPasses)
	payload = binary.LittleEndian.AppendUint32(payload, nOut)
	payload = append(payload, tail...)
	out := compressor.AppendHeader(nil, compressor.Header{
		Magic: compressor.MagicSPERR, Nx: 2, Ny: 2, Nz: 2, EB: 0.5,
	})
	var zbuf bytes.Buffer
	zw, err := flate.NewWriter(&zbuf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return append(out, zbuf.Bytes()...)
}

// hostileOutlierStream is a stream with nothing coded whose single outlier
// record carries the given index delta.
func hostileOutlierStream(t *testing.T, delta uint64) []byte {
	t.Helper()
	tail := binary.AppendUvarint(nil, delta) // outlier index delta
	tail = binary.AppendUvarint(tail, 2)     // outlier zigzag value
	tail = append(tail, make([]byte, 8)...)  // speck bit length = 0
	return hostileStream(t, 0, 0, 1, tail)
}

// hostileT0Stream is a stream that codes three bit planes of a 2x2x2 field
// (every set insignificant: three zero bits) from the first threshold t0.
func hostileT0Stream(t testing.TB, t0 float64) []byte {
	return hostileStream(t, t0, 3, 0, append(binary.LittleEndian.AppendUint64(nil, 3), 0))
}

// TestFirstThresholdValidated: t0 comes from the payload and scales every
// decoded coefficient, so anything the encoder cannot have written — it only
// writes 2^k — is a bad stream, not a field of NaNs with a nil error.
func TestFirstThresholdValidated(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -4, 3, 0.3,
		math.Nextafter(4, 5), math.MaxFloat64, 5e-324, math.Ldexp(1, -1072)}
	for _, t0 := range bad {
		f, err := New().Decompress(hostileT0Stream(t, t0))
		if !errors.Is(err, compressor.ErrBadStream) {
			t.Errorf("t0 = %g: err = %v (field %v), want ErrBadStream", t0, err, f != nil)
		}
		if _, err := DecompressProgressive(hostileT0Stream(t, t0), 0.5); !errors.Is(err, compressor.ErrBadStream) {
			t.Errorf("t0 = %g, progressive: err = %v, want ErrBadStream", t0, err)
		}
	}
	for _, t0 := range []float64{4, 1, math.Ldexp(1, -60), math.Ldexp(1, 1023), math.Ldexp(1, -1071)} {
		f, err := New().Decompress(hostileT0Stream(t, t0))
		if err != nil {
			t.Fatalf("t0 = %g: %v", t0, err)
		}
		for i, v := range f.Data {
			if v != 0 {
				t.Fatalf("t0 = %g: sample %d = %g from a stream of insignificant sets", t0, i, v)
			}
		}
	}
	// With no planes coded t0 scales nothing; the encoder writes 0 for a zero field.
	if _, err := New().Decompress(hostileStream(t, math.NaN(), 0, 0, make([]byte, 8))); err != nil {
		t.Fatalf("nPasses = 0: %v", err)
	}
}

// TestOutlierDeltaOverflowRejected is the regression test for the signed
// overflow in the outlier index accumulator: a 64-bit delta used to wrap
// prev negative, slip past the `prev >= n` check, and index g.Data out of
// range from below — a decoder panic on a 44-byte input.
func TestOutlierDeltaOverflowRejected(t *testing.T) {
	for _, delta := range []uint64{1 << 63, ^uint64(0), 9, 1 << 32} {
		stream := hostileOutlierStream(t, delta)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("delta %d: decoder panicked: %v", delta, r)
				}
			}()
			_, err := New().Decompress(stream)
			if err == nil {
				t.Fatalf("delta %d: hostile outlier accepted", delta)
			}
			if !errors.Is(err, compressor.ErrBadStream) {
				t.Fatalf("delta %d: err = %v, want ErrBadStream", delta, err)
			}
		}()
	}
}

// TestOutlierCountBeyondPayloadRejected covers allocation-before-validation:
// a claimed outlier count larger than the payload could back must be refused
// before make([]outlier, n) runs.
func TestOutlierCountBeyondPayloadRejected(t *testing.T) {
	var payload bytes.Buffer
	var b8 [8]byte
	payload.Write(b8[:])  // t0
	payload.Write(b8[:4]) // levels
	payload.WriteByte(0)  // nPasses
	binary.LittleEndian.PutUint32(b8[:4], 1<<20)
	payload.Write(b8[:4]) // nOut = 1M, payload has no bytes to back it
	out := compressor.AppendHeader(nil, compressor.Header{
		Magic: compressor.MagicSPERR, Nx: 256, Ny: 256, Nz: 256, EB: 0.5,
	})
	var zbuf bytes.Buffer
	zw, _ := flate.NewWriter(&zbuf, flate.BestSpeed)
	zw.Write(payload.Bytes())
	zw.Close()
	stream := append(out, zbuf.Bytes()...)
	if _, err := New().Decompress(stream); err == nil {
		t.Fatal("outlier count beyond payload accepted")
	}
}

// TestProgressiveLimited exercises the limit plumbing on the progressive
// path too.
func TestProgressiveLimited(t *testing.T) {
	stream := hostileOutlierStream(t, 0)
	if _, err := DecompressProgressiveLimited(stream, 1, safedec.Limits{MaxElements: 4}); !errors.Is(err, safedec.ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

// TestLosslessTailBombClassifiedAsLimit pins the shared inflate guard's
// verdict (zpool.InflateTail, same helper as sz3): a tail that inflates
// past anything an 8-sample field could need is a resource-limit rejection
// — 413 and reason="limit" at the server — not mere corruption.
func TestLosslessTailBombClassifiedAsLimit(t *testing.T) {
	stream := compressor.AppendHeader(nil, compressor.Header{
		Magic: compressor.MagicSPERR, Nx: 2, Ny: 2, Nz: 2, EB: 0.5,
	})
	stream, err := zpool.AppendDeflate(stream, make([]byte, 2<<20))
	if err != nil {
		t.Fatal(err)
	}
	_, err = New().Decompress(stream)
	if !errors.Is(err, safedec.ErrLimit) || !errors.Is(err, compressor.ErrBadStream) {
		t.Fatalf("err = %v, want ErrBadStream wrapping ErrLimit", err)
	}
	if got := safedec.Classify(err); got != "limit" {
		t.Fatalf("Classify = %q, want limit", got)
	}
}
