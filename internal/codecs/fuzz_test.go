package codecs

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/fuzzseed"
	"carol/internal/huffman"
	"carol/internal/safedec"
	"carol/internal/zpool"
)

// fuzzLimits keeps per-exec memory small so the fuzzer spends its budget on
// coverage, not on zeroing buffers a hostile header talked it into.
var fuzzLimits = safedec.Limits{MaxElements: 1 << 18, MaxAlloc: 1 << 24, MaxCount: 1 << 10}

// fuzzSeedStreams returns valid streams plus classic mutations for codec
// `name`, used as the in-code seed corpus (checked-in files live under
// testdata/fuzz/).
func fuzzSeedStreams(f testing.TB, name string) [][]byte {
	f.Helper()
	codec, err := ByName(name)
	if err != nil {
		f.Fatal(err)
	}
	fld := field.New("seed", 17, 5, 3)
	for i := range fld.Data {
		fld.Data[i] = float32(math.Sin(float64(i) / 7))
	}
	var out, zeroed [][]byte
	for _, eb := range []float64{1e-1, 1e-4} {
		s, err := codec.Compress(fld, eb)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, s, s[:len(s)/2], s[:25])
		bad := append([]byte(nil), s...)
		if len(bad) > 30 {
			bad[30] ^= 0xFF
		}
		out = append(out, bad)
		// A declared bit length of 0 (szx, zfp, szp keep it behind the
		// header) makes nothing readable. Kept behind the other seeds so
		// their file numbers stay put.
		zeroed = append(zeroed, zeroBitLength(s))
	}
	out = append(out, zeroed...)
	if name == "sperr" {
		out = append(out, sperrNaNThreshold(f, out[0]))
	}
	if name == "sz3" {
		out = append(out, sz3Miscounted(f, out[0])...)
	}
	return out
}

// sz3Miscounted returns the sz3 stream with one anchor, one code or one
// outlier more or fewer in its payload than the dims call for. The surplus
// ones used to decode, to the same field as the stream itself.
func sz3Miscounted(f testing.TB, stream []byte) [][]byte {
	f.Helper()
	const headerLen = 25
	payload, err := zpool.Inflate(stream[headerLen:], 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	// mode, anchor count (1), anchor, outlier count, outliers, Huffman stream.
	anchor := payload[5:9]
	nOut := int(binary.LittleEndian.Uint32(payload[9:]))
	outliers := payload[13 : 13+4*nOut]
	codes, err := huffman.NewDecoder().Decode(payload[13+4*nOut:])
	if err != nil {
		f.Fatal(err)
	}
	build := func(anchors, outliers []byte, codes []uint32) []byte {
		p := binary.LittleEndian.AppendUint32(payload[:1:1], uint32(len(anchors)/4))
		p = append(p, anchors...)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(outliers)/4))
		p = append(p, outliers...)
		p = huffman.NewEncoder().AppendEncode(p, codes)
		out, err := zpool.AppendDeflate(append([]byte(nil), stream[:headerLen]...), p)
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	twice := func(b []byte) []byte { return append(append([]byte(nil), b...), anchor...) }
	return [][]byte{
		build(nil, outliers, codes),
		build(twice(anchor), outliers, codes),
		build(anchor, twice(outliers), codes),
		build(anchor, outliers, append(append([]uint32(nil), codes...), codes[0])),
		build(anchor, outliers, codes[:len(codes)-1]),
	}
}

// TestSZ3MiscountedSeedsRejected: the miscounted seeds are bad streams, not
// other spellings of the good one.
func TestSZ3MiscountedSeedsRejected(t *testing.T) {
	seeds := fuzzSeedStreams(t, "sz3")
	codec, err := ByName("sz3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Decompress(seeds[0]); err != nil {
		t.Fatalf("valid seed: %v", err)
	}
	for i, s := range sz3Miscounted(t, seeds[0]) {
		if _, err := codec.Decompress(s); !errors.Is(err, compressor.ErrBadStream) {
			t.Errorf("miscounted seed %d: err = %v, want ErrBadStream", i, err)
		}
	}
}

// sperrNaNThreshold returns the sperr stream with the first threshold of its
// payload, the float64 every decoded coefficient is a multiple of, replaced
// by a NaN: it used to decode to a field of NaNs with a nil error.
func sperrNaNThreshold(f testing.TB, stream []byte) []byte {
	f.Helper()
	const headerLen = 25
	payload, err := zpool.Inflate(stream[headerLen:], 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	binary.LittleEndian.PutUint64(payload, math.Float64bits(math.NaN()))
	out, err := zpool.AppendDeflate(append([]byte(nil), stream[:headerLen]...), payload)
	if err != nil {
		f.Fatal(err)
	}
	return out
}

// fuzzDecompress is the shared decode-hardening target: arbitrary bytes in,
// error or field out, never a panic, allocations bounded by fuzzLimits.
func fuzzDecompress(f *testing.F, name string) {
	for _, s := range fuzzSeedStreams(f, name) {
		f.Add(s)
	}
	codec, err := ByName(name)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = codec.DecompressLimited(data, fuzzLimits)
	})
}

func FuzzDecompressSZx(f *testing.F)   { fuzzDecompress(f, "szx") }
func FuzzDecompressZFP(f *testing.F)   { fuzzDecompress(f, "zfp") }
func FuzzDecompressSZ3(f *testing.F)   { fuzzDecompress(f, "sz3") }
func FuzzDecompressSPERR(f *testing.F) { fuzzDecompress(f, "sperr") }
func FuzzDecompressSZP(f *testing.F)   { fuzzDecompress(f, "szp") }

// roundTripSeeds builds one seed per codec for FuzzCompressRoundTrip: a
// selector byte, packed small dims, an eb exponent, then raw float32 samples.
func roundTripSeeds() [][]byte {
	seed := make([]byte, 6+4*24)
	seed[1], seed[2], seed[3], seed[4], seed[5] = 6, 2, 2, 2, 3
	for i := 0; i < 24; i++ {
		binary.LittleEndian.PutUint32(seed[6+4*i:], math.Float32bits(float32(i)))
	}
	var out [][]byte
	for c := byte(0); c < 5; c++ {
		s := append([]byte(nil), seed...)
		s[0] = c
		out = append(out, s)
	}
	return out
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpora under
// testdata/fuzz/ when CAROL_WRITE_CORPUS is set; otherwise it only asserts
// the checked-in corpus exists for every target.
func TestWriteFuzzCorpus(t *testing.T) {
	targets := map[string][][]byte{
		"FuzzCompressRoundTrip": roundTripSeeds(),
	}
	for _, name := range []string{"szx", "zfp", "sz3", "sperr", "szp"} {
		targets["FuzzDecompress"+fuzzTargetSuffix(name)] = fuzzSeedStreams(t, name)
	}
	fuzzseed.Check(t, ".", targets)
}

// fuzzTargetSuffix maps a codec name to the suffix used in its fuzz target
// function name.
func fuzzTargetSuffix(name string) string {
	switch name {
	case "szx":
		return "SZx"
	case "zfp":
		return "ZFP"
	case "sz3":
		return "SZ3"
	case "sperr":
		return "SPERR"
	case "szp":
		return "SZP"
	}
	return name
}

// FuzzCompressRoundTrip asserts the error-bound contract on arbitrary
// inputs: whatever field the fuzzer constructs, compress followed by
// decompress must reproduce it within eb for every registered codec the
// first data byte selects.
func FuzzCompressRoundTrip(f *testing.F) {
	for _, s := range roundTripSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		name := ExtendedNames[int(data[0])%len(ExtendedNames)]
		codec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nx := int(data[1])%48 + 1
		ny := int(data[2])%12 + 1
		nz := int(data[3])%6 + 1
		ebExp := int(data[4]) % 6
		eb := math.Pow(10, -float64(ebExp))
		n := nx * ny * nz
		samples := data[6:]
		fld := field.New("fuzz", nx, ny, nz)
		for i := 0; i < n; i++ {
			var v float32
			if 4*i+4 <= len(samples) {
				v = math.Float32frombits(binary.LittleEndian.Uint32(samples[4*i:]))
			}
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			// Keep magnitudes where float32 quantization arithmetic is
			// exact enough for the absolute-bound contract to be testable.
			if v > 1e6 || v < -1e6 {
				v = float32(math.Mod(float64(v), 1e6))
			}
			fld.Data[i] = v
		}
		stream, err := codec.Compress(fld, eb)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		g, err := codec.Decompress(stream)
		if err != nil {
			t.Fatalf("%s: decompress own stream: %v", name, err)
		}
		if g.Nx != nx || g.Ny != ny || g.Nz != nz {
			t.Fatalf("%s: dims %dx%dx%d, want %dx%dx%d", name, g.Nx, g.Ny, g.Nz, nx, ny, nz)
		}
		if err := compressor.CheckBound(fld, g, eb); err != nil {
			t.Fatalf("%s eb=%g: %v", name, eb, err)
		}
	})
}
