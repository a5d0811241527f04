package huffman

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"carol/internal/bitstream"
	"carol/internal/safedec"
	"carol/internal/xrand"
)

func roundTrip(t *testing.T, symbols []uint32) []byte {
	t.Helper()
	enc := Encode(symbols)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(symbols) == 0 && len(dec) == 0 {
		return enc
	}
	if !reflect.DeepEqual(symbols, dec) {
		t.Fatalf("round trip mismatch: got %v, want %v", dec[:min(16, len(dec))], symbols[:min(16, len(symbols))])
	}
	return enc
}

func TestRoundTripEmpty(t *testing.T)  { roundTrip(t, []uint32{}) }
func TestRoundTripSingle(t *testing.T) { roundTrip(t, []uint32{7}) }

func TestRoundTripUniform(t *testing.T) {
	roundTrip(t, []uint32{5, 5, 5, 5, 5, 5, 5, 5})
}

func TestRoundTripTwoSymbols(t *testing.T) {
	roundTrip(t, []uint32{0, 1, 0, 0, 1, 0, 1, 1, 0})
}

func TestRoundTripSkewed(t *testing.T) {
	var s []uint32
	for i := 0; i < 1000; i++ {
		s = append(s, 42)
	}
	s = append(s, 1, 2, 3, 4, 5)
	roundTrip(t, s)
}

func TestRoundTripLargeAlphabet(t *testing.T) {
	rng := xrand.New(1)
	s := make([]uint32, 5000)
	for i := range s {
		s[i] = uint32(rng.Intn(700))
	}
	roundTrip(t, s)
}

func TestSkewedInputCompresses(t *testing.T) {
	// 99% one symbol: encoded size must be far below 32 bits/symbol.
	rng := xrand.New(2)
	s := make([]uint32, 20000)
	for i := range s {
		if rng.Float64() < 0.99 {
			s[i] = 0
		} else {
			s[i] = uint32(rng.Intn(100) + 1)
		}
	}
	enc := roundTrip(t, s)
	raw := 4 * len(s)
	if len(enc) > raw/4 {
		t.Fatalf("skewed stream compressed to %d bytes, want < %d", len(enc), raw/4)
	}
}

func TestEncodedSizeBitsMatchesEntropyOrder(t *testing.T) {
	// Uniform over 256 symbols: expect ~8 bits/symbol.
	rng := xrand.New(3)
	s := make([]uint32, 8192)
	for i := range s {
		s[i] = uint32(rng.Intn(256))
	}
	bits := EncodedSizeBits(s)
	perSym := float64(bits) / float64(len(s))
	if perSym < 7.5 || perSym > 9 {
		t.Fatalf("uniform-256 codes use %.2f bits/symbol, want ~8", perSym)
	}
}

func TestEncodedSizeBitsSkewedBelowUniform(t *testing.T) {
	skew := make([]uint32, 4096)
	rng := xrand.New(4)
	for i := range skew {
		if rng.Float64() < 0.9 {
			skew[i] = 0
		} else {
			skew[i] = uint32(rng.Intn(16))
		}
	}
	uni := make([]uint32, 4096)
	for i := range uni {
		uni[i] = uint32(rng.Intn(16))
	}
	if EncodedSizeBits(skew) >= EncodedSizeBits(uni) {
		t.Fatal("skewed stream did not encode smaller than uniform stream")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		{0, 0, 0, 0, 0, 0, 1, 0, 0xff}, // bit length claims more than present
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	enc := Encode([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4})
	trunc := enc[:len(enc)-2]
	// Fix up the bit-length header to claim the original length.
	if _, err := Decode(trunc); err == nil {
		t.Fatal("expected error for truncated payload")
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	// Frequencies chosen to produce lengths {1, 2, 3, 3}.
	e := NewEncoder()
	e.histogram([]uint32{0, 0, 0, 0, 1, 1, 2, 3})
	e.buildLengths()
	e.assignCodes()
	for a := range e.syms {
		for b := range e.syms {
			if a == b {
				continue
			}
			la, lb := e.lens[a], e.lens[b]
			if la > lb {
				continue
			}
			if e.codes[b]>>uint(lb-la) == e.codes[a] {
				t.Fatalf("code of %d is a prefix of code of %d", e.syms[a], e.syms[b])
			}
		}
	}
}

func TestKraftInequality(t *testing.T) {
	rng := xrand.New(5)
	e := NewEncoder()
	for i := 0; i < 300; i++ {
		e.syms = append(e.syms, uint32(i))
		e.freqs = append(e.freqs, uint64(rng.Intn(10000)+1))
	}
	e.buildLengths()
	var kraft float64
	for _, l := range e.lens {
		kraft += math.Pow(2, -float64(l))
	}
	if kraft > 1+1e-9 {
		t.Fatalf("Kraft sum %v > 1", kraft)
	}
}

func TestEncoderReuseByteIdentical(t *testing.T) {
	// One Encoder reused across calls must emit exactly what a fresh
	// Encoder emits — the pipeline's bit-identity guarantee depends on it.
	rng := xrand.New(6)
	e := NewEncoder()
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3000)
		alpha := rng.Intn(500) + 1
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(rng.Intn(alpha))
		}
		got := e.Encode(s)
		want := NewEncoder().Encode(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reused encoder output differs from fresh encoder", trial)
		}
	}
}

func TestDecoderReuse(t *testing.T) {
	rng := xrand.New(7)
	d := NewDecoder()
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3000)
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(rng.Intn(300))
		}
		dec, err := d.Decode(Encode(s))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(dec) != len(s) {
			t.Fatalf("trial %d: length %d != %d", trial, len(dec), len(s))
		}
		for i := range s {
			if dec[i] != s[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestSparseSymbolRoundTrip(t *testing.T) {
	// Symbols at and above denseLimit exercise the map-based histogram path.
	s := []uint32{denseLimit, denseLimit + 5, 1 << 30, denseLimit, 1 << 30, 3}
	roundTrip(t, s)
	// Reused encoder must produce identical bytes on the sparse path too.
	e := NewEncoder()
	a := e.Encode(s)
	b := e.Encode(s)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sparse-path reuse is not byte-identical")
	}
}

func TestDuplicateTableSymbolRejected(t *testing.T) {
	// Hand-build a stream whose table lists the same symbol twice: the
	// encoder never emits this and the decoder must reject it, not pick one
	// of the two conflicting code assignments.
	w := bitstream.NewWriter(64)
	w.WriteBits(2, 32) // nAlpha
	w.WriteBits(1, 32) // nSyms
	w.WriteBits(5, 32) // sym 5, len 1
	w.WriteBits(1, 6)
	w.WriteBits(5, 32) // sym 5 again, len 1
	w.WriteBits(1, 6)
	w.WriteBit(0) // payload
	var stream []byte
	bits := w.BitLen()
	for i := 0; i < 8; i++ {
		stream = append(stream, byte(bits>>(56-8*i)))
	}
	stream = w.AppendTo(stream)
	if _, err := Decode(stream); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate table symbol: got %v, want ErrCorrupt", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, n16 uint16, alpha8 uint8) bool {
		rng := xrand.New(seed)
		n := int(n16 % 2000)
		alpha := int(alpha8%200) + 1
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(rng.Intn(alpha))
		}
		dec, err := Decode(Encode(s))
		if err != nil {
			return false
		}
		if len(dec) != len(s) {
			return false
		}
		for i := range s {
			if dec[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := xrand.New(1)
	s := make([]uint32, 1<<16)
	for i := range s {
		s[i] = uint32(rng.Intn(64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode(s)
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := xrand.New(1)
	s := make([]uint32, 1<<16)
	for i := range s {
		s[i] = uint32(rng.Intn(64))
	}
	enc := Encode(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncoderSteadyState(b *testing.B) {
	// The pipeline hot path: one pooled Encoder appending into a reused
	// destination buffer. Steady state must be ~0 allocs/op.
	rng := xrand.New(1)
	s := make([]uint32, 1<<16)
	for i := range s {
		s[i] = uint32(rng.Intn(64))
	}
	e := NewEncoder()
	dst := e.Encode(s) // warm the scratch and size dst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.AppendEncode(dst[:0], s)
	}
	_ = dst
}

func BenchmarkDecoderSteadyState(b *testing.B) {
	rng := xrand.New(1)
	s := make([]uint32, 1<<16)
	for i := range s {
		s[i] = uint32(rng.Intn(64))
	}
	enc := Encode(s)
	d := NewDecoder()
	dst, err := d.Decode(enc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = d.AppendDecodeLimited(dst[:0], enc, safedec.Default())
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = dst
}

// TestDecodePoolRetention is the regression test for the pooled-decoder
// leak carollint's poolreset analyzer found: the package-level decode
// wrappers must not return a Decoder to the pool while its bit reader
// still references the caller's stream. Under the race detector sync.Pool
// drops Puts at random, in which case Get hands back a fresh (released)
// Decoder and the assertion holds vacuously; in normal runs it sees the
// exact object the decode just pooled.
func TestDecodePoolRetention(t *testing.T) {
	stream := Encode([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 2, 2, 2})
	if _, err := Decode(stream); err != nil {
		t.Fatal(err)
	}
	d := decPool.Get().(*Decoder) //carol:allow poolreset test inspects pooled state without using it
	defer decPool.Put(d)
	if !d.r.Released() {
		t.Fatal("pooled Decoder still references the caller's stream after Decode")
	}
}
