package sperr

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"testing"

	"carol/internal/compressor"
	"carol/internal/safedec"
	"carol/internal/zpool"
)

// hostileOutlierStream builds a syntactically valid sperr stream for a
// 2x2x2 field whose single outlier record carries the given index delta.
func hostileOutlierStream(t *testing.T, delta uint64) []byte {
	t.Helper()
	var payload bytes.Buffer
	var b8 [8]byte
	payload.Write(b8[:])                              // t0 = 0.0
	payload.Write(b8[:4])                             // levels = 0
	payload.WriteByte(0)                              // nPasses = 0
	binary.LittleEndian.PutUint32(b8[:4], 1)          // nOut = 1
	payload.Write(b8[:4])                             //
	var v [binary.MaxVarintLen64]byte                 //
	payload.Write(v[:binary.PutUvarint(v[:], delta)]) // outlier index delta
	payload.Write(v[:binary.PutUvarint(v[:], 2)])     // outlier zigzag value
	payload.Write(make([]byte, 8))                    // speck bit length = 0
	out := compressor.AppendHeader(nil, compressor.Header{
		Magic: compressor.MagicSPERR, Nx: 2, Ny: 2, Nz: 2, EB: 0.5,
	})
	var zbuf bytes.Buffer
	zw, err := flate.NewWriter(&zbuf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return append(out, zbuf.Bytes()...)
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
