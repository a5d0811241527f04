package chunked

import (
	"encoding/binary"
	"errors"
	"testing"

	"carol/internal/field"
	"carol/internal/safedec"
	"carol/internal/safedec/safedectest"
	"carol/internal/szx"
)

// container assembles a legacy CCH1 container with explicit header fields
// and chunk payloads.
func container(nx, ny, nz, n uint32, chunks ...[]byte) []byte {
	out := []byte("CCH1")
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		out = append(out, b[:]...)
	}
	put(nx)
	put(ny)
	put(nz)
	put(n)
	for _, c := range chunks {
		put(uint32(len(c)))
	}
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// TestHostileDimsOverflowRejected is the regression test for the dims
// product overflow: 2^30 per axis used to wrap the int multiply inside
// field.New (the 2^90 product is 0 mod 2^64) instead of being rejected.
func TestHostileDimsOverflowRejected(t *testing.T) {
	stream := container(1<<30, 1<<30, 1<<30, 1, []byte{0})
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("decoder panicked: %v", r)
		}
	}()
	_, err := Decompress(szx.New(), stream, Options{})
	if err == nil {
		t.Fatal("overflowing dims accepted")
	}
	if safedec.Classify(err) == "" {
		t.Fatalf("err %v does not classify", err)
	}
}

// TestChunkCountLimit: the container-claimed chunk count is bounded both by
// the hard 2^16 ceiling and by Options.Limits.MaxCount.
func TestChunkCountLimit(t *testing.T) {
	stream := container(4, 4, 4, 1<<17)
	if _, err := Decompress(szx.New(), stream, Options{}); err == nil {
		t.Fatal("2^17 chunks accepted")
	}
	stream = container(64, 1, 1, 64)
	opts := Options{Limits: safedec.Limits{MaxCount: 8}}
	safedectest.Rejects(t, 0, func() error {
		_, err := Decompress(szx.New(), stream, opts)
		return err
	})
}

// TestContainerElementsOverLimit: the container's own dims are charged to
// MaxElements before any chunk is decoded — every chunk here fits the cap
// on its own, only their sum does not.
func TestContainerElementsOverLimit(t *testing.T) {
	f := field.New("zeros", 256, 64, 64)
	stream, err := Compress(szx.New(), f, 1e-3, Options{Chunks: 16})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Limits: safedec.Limits{MaxElements: 1 << 16}}
	safedectest.Rejects(t, 4<<16, func() error {
		_, err := Decompress(szx.New(), stream, opts)
		return err
	})
}

// TestSlabDimsMismatchRejected: a decoded slab whose dimensions disagree
// with the geometry the container header implies must be refused, not
// spliced into the output field.
func TestSlabDimsMismatchRejected(t *testing.T) {
	// Container claims a 4-sample 1D field in one chunk, but the embedded
	// szx stream reconstructs 8 samples.
	f := testField(t, 8, 1, 1)
	stream, err := szx.New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	bad := container(4, 1, 1, 1, stream)
	if _, err := Decompress(szx.New(), bad, Options{}); !errors.Is(err, safedec.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestTruncatedContainerClassified: truncation errors carry the safedec
// truncated class.
func TestTruncatedContainerClassified(t *testing.T) {
	f := testField(t, 256, 1, 1)
	stream, err := Compress(szx.New(), f, 1e-3, Options{Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{0, 3, 19, 21, len(stream) / 2} {
		_, err := Decompress(szx.New(), stream[:keep], Options{})
		if err == nil {
			t.Fatalf("truncated to %d: accepted", keep)
		}
	}
}
