package pipeline

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/fuzzseed"
	"carol/internal/safedec"
)

// legacyContainer lays blocks out as the legacy CCH1 container: the CPL1
// header under legacyMagic, every length in one table, then the streams.
func legacyContainer(nx, ny, nz, n int, blocks ...[]byte) []byte {
	out := appendHeader(nil, nx, ny, nz, n)
	copy(out, legacyMagic[:])
	for _, b := range blocks {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
	}
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// legacyCase is one checked-in CCH1 container (testdata/cch1_digests.txt).
type legacyCase struct {
	name, codec string
	stream      []byte
	digest      string // sha256 of the decoded raw field; "-": refused
}

func legacyContainers(t testing.TB) []legacyCase {
	t.Helper()
	list, err := os.ReadFile("testdata/cch1_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []legacyCase
	sc := bufio.NewScanner(bytes.NewReader(list))
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) == 0 || strings.HasPrefix(fs[0], "#") {
			continue
		}
		stream, err := fuzzseed.Read(filepath.Join("testdata/fuzz/FuzzFrames", fs[0]))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, legacyCase{fs[0], fs[1], stream, fs[2]})
	}
	return out
}

// digest is the sha256 of f's raw little-endian samples, or "-" for a
// refused decode.
func digest(f *field.Field, err error) string {
	if err != nil {
		return "-"
	}
	var buf bytes.Buffer
	if err := f.WriteRaw(&buf); err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// TestLegacyContainersDecode: every CCH1 container the old writer left
// decodes to the field bits it decoded to then — or is refused, as it was
// — through the in-memory and the streaming decoder, at any worker count.
func TestLegacyContainersDecode(t *testing.T) {
	cases := legacyContainers(t)
	if len(cases) != 10 {
		t.Fatalf("%d legacy containers, want 10", len(cases))
	}
	for _, c := range cases {
		inner, err := codecs.ByName(c.codec)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			p := New(inner, Options{Workers: workers})
			if got := digest(p.Decompress(c.stream)); got != c.digest {
				t.Errorf("%s workers=%d: Decompress gives %s, want %s", c.name, workers, got, c.digest)
			}
			if got := digest(p.DecompressStream(bytes.NewReader(c.stream))); got != c.digest {
				t.Errorf("%s workers=%d: DecompressStream gives %s, want %s", c.name, workers, got, c.digest)
			}
		}
	}
}

// TestFramesReadBothMagics: a CPL1 container and the CCH1 layout of the
// same blocks frame to the same header and streams, and the streams are
// views of the input, not copies.
func TestFramesReadBothMagics(t *testing.T) {
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 24, 20, 12)
	cpl, err := New(inner, Options{Blocks: 5}).Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	h, blocks, err := Frames(cpl, safedec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	cch := legacyContainer(f.Nx, f.Ny, f.Nz, len(blocks), blocks...)
	if len(cch) != len(cpl) {
		t.Fatalf("CCH1 layout is %d bytes, CPL1 %d: the formats should cost the same", len(cch), len(cpl))
	}
	for _, b := range [][]byte{cpl, cch} {
		gh, gblocks, err := Frames(b, safedec.Limits{})
		if err != nil {
			t.Fatalf("%q: %v", b[:4], err)
		}
		if fmt.Sprint(gh) != fmt.Sprint(h) || len(gblocks) != 5 {
			t.Fatalf("%q: header %v with %d blocks, want %v with 5", b[:4], gh, len(gblocks), h)
		}
		for i := range gblocks {
			if !bytes.Equal(gblocks[i], blocks[i]) {
				t.Fatalf("%q: block %d differs", b[:4], i)
			}
		}
		last, end := gblocks[4], b[len(b)-1]
		last[len(last)-1] ^= 0xff
		if b[len(b)-1] == end {
			t.Fatalf("%q: block 4 is a copy of the input", b[:4])
		}
		last[len(last)-1] ^= 0xff
	}
}

// TestPartsMatchCompress: the parts a tier writes out one by one after
// compressing SplitField's blocks itself join to Codec.Compress's bytes.
func TestPartsMatchCompress(t *testing.T) {
	inner, err := codecs.ByName("sz3")
	if err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][3]int{{611, 1, 1}, {53, 37, 1}, {24, 20, 12}} {
		f := testField(t, dims[0], dims[1], dims[2])
		for _, n := range []int{1, 2, 3, 7} {
			want, err := New(inner, Options{Blocks: n}).Compress(f, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			var streams [][]byte
			for _, slab := range SplitField(f, n) {
				s, err := inner.Compress(slab, 1e-3)
				if err != nil {
					t.Fatal(err)
				}
				streams = append(streams, s)
			}
			if got := bytes.Join(Parts(f.Nx, f.Ny, f.Nz, streams), nil); !bytes.Equal(got, want) {
				t.Errorf("dims %v, %d blocks: Parts give %d bytes, Compress %d", dims, n, len(got), len(want))
			}
		}
	}
}

// TestFramesHostile: every malformed framing is refused in its class, in
// either format.
func TestFramesHostile(t *testing.T) {
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 64, 1, 1)
	cpl, err := New(inner, Options{Blocks: 2}).Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	_, blocks, err := Frames(cpl, safedec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	cch := legacyContainer(64, 1, 1, 2, blocks...)
	huge := binary.LittleEndian.AppendUint32(appendHeader(nil, 64, 1, 1, 1), 1<<31)
	for _, c := range []struct {
		name  string
		b     []byte
		class error
	}{
		{"bad magic", append([]byte("CCH2"), cpl[4:]...), safedec.ErrCorrupt},
		{"short header", cpl[:headerLen-1], safedec.ErrTruncated},
		{"more blocks than bytes", appendHeader(nil, 1<<20, 1, 1, 1<<20), safedec.ErrTruncated},
		{"CPL1 cut in a frame", cpl[:len(cpl)-1], safedec.ErrTruncated},
		{"CPL1 cut in a length", cpl[:headerLen+4+len(blocks[0])+2], safedec.ErrTruncated},
		{"CCH1 cut in its table", cch[:headerLen+6], safedec.ErrTruncated},
		{"CCH1 cut in a stream", cch[:len(cch)-1], safedec.ErrTruncated},
		{"block over MaxAlloc", append(huge, make([]byte, 8)...), safedec.ErrLimit},
	} {
		_, _, err := Frames(c.b, safedec.Limits{MaxAlloc: 1 << 20})
		if !errors.Is(err, c.class) {
			t.Errorf("%s: err %v, want %v", c.name, err, c.class)
		}
		if _, err := New(inner, Options{}).DecompressStream(bytes.NewReader(c.b)); !errors.Is(err, c.class) && c.class != safedec.ErrLimit {
			t.Errorf("%s: streaming err %v, want %v", c.name, err, c.class)
		}
	}
}

// TestUnbackedFrameLengthBounded: a 24-byte container whose one frame
// claims 2³⁰−1 bytes, under a 1 GiB MaxAlloc, is truncated — and costs
// the first allocation of a claimed read, not the claim.
func TestUnbackedFrameLengthBounded(t *testing.T) {
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	c := New(inner, Options{Limits: safedec.Limits{MaxAlloc: 1 << 30}})
	stream := binary.LittleEndian.AppendUint32(appendHeader(nil, 1, 1, 1, 1), 1<<30-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = c.DecompressStream(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, safedec.ErrTruncated) {
		t.Fatalf("err %v, want ErrTruncated", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 16<<20 {
		t.Fatalf("a %d-byte container allocated %d bytes, want under 16 MiB", len(stream), grown)
	}
}

// frameFuzzSeeds: a valid CPL1 container, its CCH1 layout, truncations,
// hostile headers and a plain szx stream. The checked-in corpus adds the
// CCH1 containers the old writer left (testdata/cch1_digests.txt) and the
// plain stream (plain-szx).
func frameFuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 512, 1, 1)
	cpl, err := New(inner, Options{Blocks: 4}).Compress(f, compressor.AbsBound(f, 1e-2))
	if err != nil {
		t.Fatal(err)
	}
	_, blocks, err := Frames(cpl, safedec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := inner.Compress(f, compressor.AbsBound(f, 1e-2))
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		cpl,
		cpl[:len(cpl)/2],
		plain,
		legacyContainer(512, 1, 1, 4, blocks...),
		appendHeader(nil, 1<<30, 1<<30, 1<<30, 1),
		appendHeader(nil, 4, 4, 4, 1<<17),
	}
}

// FuzzFrames drives arbitrary bytes through the one frame parser and holds
// the in-memory decoder to the streaming one: Frames' streams must tile the
// input in order, and both decoders must refuse the same inputs and agree
// bit for bit on the rest. A container Frames refuses is refused; any
// other input is a codec stream and decodes as the codec decodes it. The slab fan-out makes decoding the one path
// where a panic would escape on a non-test goroutine.
func FuzzFrames(f *testing.F) {
	for _, s := range frameFuzzSeeds(f) {
		f.Add(s)
	}
	inner, err := codecs.ByName("szx")
	if err != nil {
		f.Fatal(err)
	}
	lim := safedec.Limits{MaxElements: 1 << 18, MaxAlloc: 1 << 24, MaxCount: 64}
	p := New(inner, Options{Workers: 2, Limits: lim})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, blocks, err := Frames(data, lim)
		if err == nil {
			if len(blocks) != len(h.Blocks) {
				t.Fatalf("%d streams for %d blocks", len(blocks), len(h.Blocks))
			}
			used := headerLen + 4*len(blocks)
			for _, b := range blocks {
				used += len(b)
			}
			if used > len(data) {
				t.Fatalf("streams span %d bytes of a %d-byte input", used, len(data))
			}
		}
		mem := digest(p.Decompress(data))
		if stream := digest(p.DecompressStream(bytes.NewReader(data))); mem != stream {
			t.Fatalf("in-memory decode %s, streaming %s", mem, stream)
		}
		if !IsContainer(data) {
			if want := digest(inner.DecompressLimited(data, lim)); mem != want {
				t.Fatalf("codec stream: pipeline decodes %s, the codec %s", mem, want)
			}
		} else if err != nil && mem != "-" {
			t.Fatalf("Frames refused (%v) what Decompress decoded", err)
		}
	})
}
