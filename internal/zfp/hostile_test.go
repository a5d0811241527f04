package zfp

import (
	"errors"
	"testing"

	"carol/internal/compressor"
	"carol/internal/field"
)

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
