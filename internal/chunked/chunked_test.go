package chunked

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/fuzzseed"
	"carol/internal/pipeline"
	"carol/internal/safedec"
)

func testField(t testing.TB, nx, ny, nz int) *field.Field {
	t.Helper()
	f, err := dataset.Generate("miranda", "density", dataset.Options{Nx: nx, Ny: ny, Nz: nz})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSlabRanges(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{10, 3, 3}, {10, 10, 10}, {3, 8, 3}, {1, 4, 1},
	}
	for _, c := range cases {
		ranges := pipeline.SlabRanges(c.n, c.k)
		if len(ranges) != c.want {
			t.Fatalf("slabRanges(%d,%d) -> %d ranges", c.n, c.k, len(ranges))
		}
		covered := 0
		prev := 0
		for _, r := range ranges {
			if r[0] != prev || r[1] <= r[0] {
				t.Fatalf("bad range %v in %v", r, ranges)
			}
			covered += r[1] - r[0]
			prev = r[1]
		}
		if covered != c.n {
			t.Fatalf("ranges cover %d of %d", covered, c.n)
		}
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	f := testField(t, 24, 20, 12)
	for _, name := range codecs.ExtendedNames {
		codec, err := codecs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eb := compressor.AbsBound(f, 1e-3)
		stream, err := Compress(codec, f, eb, Options{Chunks: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := Decompress(codec, stream, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := compressor.CheckBound(f, g, eb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRoundTrip2DAnd1D(t *testing.T) {
	codec, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][3]int{{64, 32, 1}, {500, 1, 1}} {
		f := testField(t, dims[0], dims[1], dims[2])
		eb := compressor.AbsBound(f, 1e-2)
		stream, err := Compress(codec, f, eb, Options{Chunks: 3})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Decompress(codec, stream, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := compressor.CheckBound(f, g, eb); err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
	}
}

func TestMoreChunksThanSlabs(t *testing.T) {
	codec, err := codecs.ByName("zfp")
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 16, 16, 3)
	eb := compressor.AbsBound(f, 1e-2)
	stream, err := Compress(codec, f, eb, Options{Chunks: 64})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(codec, stream, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := compressor.CheckBound(f, g, eb); err != nil {
		t.Fatal(err)
	}
}

func TestContainerErrors(t *testing.T) {
	codec, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range [][]byte{nil, []byte("xxxx"), make([]byte, 30)} {
		if _, err := Decompress(codec, s, Options{}); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	f := testField(t, 16, 16, 4)
	stream, err := Compress(codec, f, compressor.AbsBound(f, 1e-2), Options{Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(codec, stream[:len(stream)/2], Options{}); err == nil {
		t.Error("truncated container accepted")
	}
}

func TestChunkedSizeOverheadSmall(t *testing.T) {
	// Chunking costs per-chunk headers; the overhead must stay small.
	codec, err := codecs.ByName("sz3")
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 32, 32, 16)
	eb := compressor.AbsBound(f, 1e-2)
	whole, err := codec.Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	chunkedStream, err := Compress(codec, f, eb, Options{Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(chunkedStream)) > 1.5*float64(len(whole)) {
		t.Fatalf("chunked stream %dB vs whole %dB: overhead too large",
			len(chunkedStream), len(whole))
	}
}

func BenchmarkChunkedCompress(b *testing.B) {
	codec, err := codecs.ByName("sperr")
	if err != nil {
		b.Fatal(err)
	}
	f, err := dataset.Generate("miranda", "density", dataset.Options{Nx: 64, Ny: 64, Nz: 64})
	if err != nil {
		b.Fatal(err)
	}
	eb := compressor.AbsBound(f, 1e-3)
	b.SetBytes(int64(f.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(codec, f, eb, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAssembleParseInverse: Assemble over remotely-produced slab streams
// must emit the exact container Compress emits locally, and Parse must
// hand back the same streams.
func TestAssembleParseInverse(t *testing.T) {
	f := testField(t, 24, 20, 12)
	codec, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	eb := compressor.AbsBound(f, 1e-3)
	want, err := Compress(codec, f, eb, Options{Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the same container the way a gate would: split, compress
	// each slab independently, Assemble.
	slabs := pipeline.SplitField(f, 4)
	streams := make([][]byte, len(slabs))
	for i, slab := range slabs {
		if streams[i], err = codec.Compress(slab, eb); err != nil {
			t.Fatal(err)
		}
	}
	got := Assemble(f.Nx, f.Ny, f.Nz, streams)
	if len(got) != len(want) {
		t.Fatalf("Assemble produced %d bytes, Compress %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Assemble differs from Compress at byte %d", i)
		}
	}

	nx, ny, nz, chunks, err := Parse(got, safedec.Limits{})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if nx != f.Nx || ny != f.Ny || nz != f.Nz {
		t.Fatalf("Parse dims %dx%dx%d, want %dx%dx%d", nx, ny, nz, f.Nx, f.Ny, f.Nz)
	}
	if len(chunks) != len(streams) {
		t.Fatalf("Parse returned %d chunks, want %d", len(chunks), len(streams))
	}
	for i := range chunks {
		if len(chunks[i]) != len(streams[i]) {
			t.Fatalf("chunk %d is %d bytes, want %d", i, len(chunks[i]), len(streams[i]))
		}
	}
}

// TestParseRejectsHostileHeaders: Parse must classify, not crash, on the
// same hostile inputs Decompress is hardened against.
func TestParseRejectsHostileHeaders(t *testing.T) {
	if _, _, _, _, err := Parse([]byte("CCH"), safedec.Limits{}); err == nil {
		t.Fatal("Parse accepted a truncated container")
	}
	if _, _, _, _, err := Parse([]byte("XXXX0123456789abcdef"), safedec.Limits{}); err == nil {
		t.Fatal("Parse accepted a bad magic")
	}
}

// TestLegacyContainersDecode: the CCH1 containers this package's deleted
// writer left (internal/pipeline/testdata/cch1_digests.txt) decode through
// the shim to the field bits they decoded to then, or are refused.
func TestLegacyContainersDecode(t *testing.T) {
	const dir = "../pipeline/testdata"
	list, err := os.ReadFile(filepath.Join(dir, "cch1_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(list), "\n") {
		fs := strings.Fields(line)
		if len(fs) != 3 || strings.HasPrefix(fs[0], "#") {
			continue
		}
		stream, err := fuzzseed.Read(filepath.Join(dir, "fuzz/FuzzFrames", fs[0]))
		if err != nil {
			t.Fatal(err)
		}
		codec, err := codecs.ByName(fs[1])
		if err != nil {
			t.Fatal(err)
		}
		got := "-"
		if f, err := Decompress(codec, stream, Options{}); err == nil {
			var buf bytes.Buffer
			if err := f.WriteRaw(&buf); err != nil {
				t.Fatal(err)
			}
			got = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		}
		if got != fs[2] {
			t.Errorf("%s: decodes to %s, want %s", fs[0], got, fs[2])
		}
		n++
	}
	if n != 10 {
		t.Fatalf("%d legacy containers, want 10", n)
	}
}
