package szx

import (
	"errors"
	"testing"

	"carol/internal/compressor"
	"carol/internal/safedec"
	"carol/internal/safedec/safedectest"
)

// TestBitLengthBeyondPayloadRejected is the regression test for the missing
// bit-length validation: the prefix used to be trusted, so a tampered
// length claiming more bits than the payload holds sailed into the block
// loop instead of being rejected at the door.
func TestBitLengthBeyondPayloadRejected(t *testing.T) {
	f := compressor.Header{Magic: compressor.MagicSZx, Nx: 8, Ny: 1, Nz: 1, EB: 1e-3}
	stream := compressor.AppendHeader(nil, f)
	// Bit length claims 2^40 bits; zero payload bytes follow.
	stream = append(stream, 0, 0, 0x01, 0, 0, 0, 0, 0)
	_, err := New().Decompress(stream)
	if err == nil {
		t.Fatal("oversized bit length accepted")
	}
	if !errors.Is(err, compressor.ErrBadStream) {
		t.Fatalf("err = %v, want ErrBadStream", err)
	}
}

// TestDecompressLimited checks limit threading on the szx path.
func TestDecompressLimited(t *testing.T) {
	f := compressor.Header{Magic: compressor.MagicSZx, Nx: 1 << 10, Ny: 1 << 10, Nz: 4, EB: 1e-3}
	stream := compressor.AppendHeader(nil, f)
	safedectest.Rejects(t, 4<<20, func() error {
		_, err := New().DecompressLimited(stream, safedec.Limits{MaxElements: 1 << 20})
		return err
	})
}
