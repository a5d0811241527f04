package codecs

import (
	"errors"
	"math"
	"testing"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/safedec"
	"carol/internal/safedec/safedectest"
	"carol/internal/szp"
	"carol/internal/zfp"
)

// magicFor returns the header magic byte each registered codec expects.
func magicFor(t *testing.T, name string) byte {
	t.Helper()
	switch name {
	case "szx":
		return compressor.MagicSZx
	case "zfp":
		return compressor.MagicZFP
	case "sz3":
		return compressor.MagicSZ3
	case "sperr":
		return compressor.MagicSPERR
	case "szp":
		return szp.MagicSZP
	}
	t.Fatalf("no magic for codec %q", name)
	return 0
}

func header(magic byte, nx, ny, nz int, eb float64) []byte {
	return compressor.AppendHeader(nil, compressor.Header{
		Magic: magic, Nx: nx, Ny: ny, Nz: nz, EB: eb,
	})
}

// TestHostileStreams drives every registered codec through a table of
// crafted attack streams. Each decode must return an error of the right
// safedec class — never panic, never succeed, never allocate from the
// hostile claim. Run under -race in CI; the table is the regression net for
// the bugs the fuzzing campaign surfaced.
func TestHostileStreams(t *testing.T) {
	lim := safedec.Limits{MaxElements: 1 << 20, MaxAlloc: 1 << 24, MaxCount: 1 << 10}
	for _, codec := range allExtended(t) {
		m := magicFor(t, codec.Name())
		cases := []struct {
			name   string
			stream []byte
			// class is the required errors.Is target. nil means the stream
			// may even decode (e.g. an all-zeros payload is a valid zero
			// field for some codecs) — the requirement is only no panic and
			// no unbounded allocation.
			class error
		}{
			{"empty", nil, safedec.ErrTruncated},
			{"short header", header(m, 4, 4, 4, 1e-3)[:10], safedec.ErrTruncated},
			{"wrong magic", header(m^0x55, 4, 4, 4, 1e-3), nil},
			{"zero dims", header(m, 0, 4, 4, 1e-3), safedec.ErrCorrupt},
			{"huge single dim", header(m, 1<<31-1, 1, 1, 1e-3), safedec.ErrCorrupt},
			{"dims product over limit", header(m, 1<<11, 1<<11, 1, 1e-3), safedec.ErrLimit},
			{"dims product overflows int64", header(m, 1<<30, 1<<30, 1<<30, 1e-3), safedec.ErrLimit},
			{"negative error bound", header(m, 4, 4, 4, -1), safedec.ErrCorrupt},
			{"infinite error bound", header(m, 4, 4, 4, math.Inf(1)), safedec.ErrCorrupt},
			{"header only, no payload", header(m, 8, 8, 8, 1e-3), nil},
			{"payload of zeros", append(header(m, 8, 8, 8, 1e-3), make([]byte, 64)...), nil},
			{"checksum corrupted", flipByte(header(m, 4, 4, 4, 1e-3), 3), safedec.ErrCorrupt},
		}
		for _, tc := range cases {
			t.Run(codec.Name()+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if tc.class == safedec.ErrLimit {
					safedectest.Rejects(t, 4*lim.MaxElements, func() error {
						_, err := codec.DecompressLimited(tc.stream, lim)
						return err
					})
					return
				}
				_, err := codec.DecompressLimited(tc.stream, lim)
				if tc.class == nil {
					return // error optional; no-panic already proven
				}
				if err == nil {
					t.Fatal("hostile stream decoded without error")
				}
				if !errors.Is(err, tc.class) {
					t.Fatalf("err = %v, want class %v", err, tc.class)
				}
				if safedec.Classify(err) == "" {
					t.Fatalf("err %v does not classify", err)
				}
			})
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

// TestLimitsAreHonored proves the limit path end to end: a stream that
// decodes fine under permissive limits is refused with ErrLimit under a
// ceiling smaller than its element count.
func TestLimitsAreHonored(t *testing.T) {
	f := corruptionField() // 24*20*8 = 3840 elements
	for _, codec := range allExtended(t) {
		stream, err := codec.Compress(f, compressor.AbsBound(f, 1e-2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.DecompressLimited(stream, safedec.Default()); err != nil {
			t.Fatalf("%s: default limits refused a valid stream: %v", codec.Name(), err)
		}
		safedectest.Rejects(t, 4*1000, func() error {
			_, err := codec.DecompressLimited(stream, safedec.Limits{MaxElements: 1000})
			return err
		})
	}
}

// zeroBitLength returns stream with the eight bytes behind the common
// header zeroed — for szx, zfp and szp that is the big-endian bit length of
// the payload.
func zeroBitLength(stream []byte) []byte {
	out := append([]byte(nil), stream...)
	for i := 25; i < 33 && i < len(out); i++ {
		out[i] = 0
	}
	return out
}

// TestZeroBitLengthIsNotUncapped is the regression test for the bug where a
// declared payload length of 0 bits disabled the cap it exists for:
// bitstream.Reader treated 0 as "the whole buffer", so a stream whose length
// field was zeroed still decoded, reading bits the header said were not
// there. The length is an exact cap now and such a stream is truncated.
func TestZeroBitLengthIsNotUncapped(t *testing.T) {
	f := corruptionField()
	eb := compressor.AbsBound(f, 1e-2)
	for _, name := range []string{"szx", "zfp", "szp"} {
		codec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := codec.Compress(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.Decompress(stream); err != nil {
			t.Fatalf("%s: valid stream: %v", name, err)
		}
		_, err = codec.Decompress(zeroBitLength(stream))
		if !errors.Is(err, compressor.ErrBadStream) || !errors.Is(err, safedec.ErrTruncated) {
			t.Errorf("%s: bit length 0: err = %v, want ErrBadStream wrapping ErrTruncated", name, err)
		}
	}
	stream, err := zfp.CompressFixedRate(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = zfp.DecompressFixedRate(zeroBitLength(stream))
	if !errors.Is(err, compressor.ErrBadStream) || !errors.Is(err, safedec.ErrTruncated) {
		t.Errorf("zfp fixed rate: bit length 0: err = %v, want ErrBadStream wrapping ErrTruncated", err)
	}
}

// TestSPERREmptySPECKSectionStaysValid: SPERR is the one codec where a bit
// length of 0 is what the encoder writes — an all-zero field has no
// significance pass to code — and it must keep decoding.
func TestSPERREmptySPECKSectionStaysValid(t *testing.T) {
	codec, err := ByName("sperr")
	if err != nil {
		t.Fatal(err)
	}
	f := field.New("zeros", 9, 7, 5)
	stream, err := codec.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := codec.Decompress(stream)
	if err != nil {
		t.Fatalf("all-zero field: %v", err)
	}
	if err := compressor.CheckBound(f, g, 1e-3); err != nil {
		t.Fatal(err)
	}
}
