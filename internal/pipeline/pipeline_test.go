package pipeline

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/safedec"
	"carol/internal/safedec/safedectest"
)

func testField(t testing.TB, nx, ny, nz int) *field.Field {
	t.Helper()
	f, err := dataset.Generate("miranda", "density", dataset.Options{Nx: nx, Ny: ny, Nz: nz})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBitIdenticalAcrossWorkers is the pipeline's central determinism
// guarantee: for every codec, the container bytes are identical for any
// worker count, and identical to the slice-based Compress view.
func TestBitIdenticalAcrossWorkers(t *testing.T) {
	f := testField(t, 24, 20, 16)
	for _, name := range codecs.ExtendedNames {
		inner, err := codecs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var ref []byte
		for _, workers := range []int{1, 2, 3, 7} {
			c := New(inner, Options{Blocks: 5, Workers: workers})
			var buf bytes.Buffer
			if err := c.CompressStream(&buf, f, 1e-3); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if ref == nil {
				ref = buf.Bytes()
			} else if !bytes.Equal(ref, buf.Bytes()) {
				t.Fatalf("%s: workers=%d stream differs from workers=1", name, workers)
			}
			slice, err := c.Compress(f, 1e-3)
			if err != nil {
				t.Fatalf("%s workers=%d Compress: %v", name, workers, err)
			}
			if !bytes.Equal(ref, slice) {
				t.Fatalf("%s: slice Compress differs from CompressStream", name)
			}
		}
	}
}

// TestRoundTripAllCodecsAllWorkers: bit-identical round trips at every
// worker count — the decoded field must not depend on parallelism either.
func TestRoundTripAllCodecsAllWorkers(t *testing.T) {
	f := testField(t, 20, 16, 12)
	for _, name := range codecs.ExtendedNames {
		inner, err := codecs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		enc := New(inner, Options{Blocks: 4, Workers: 2})
		stream, err := enc.Compress(f, 1e-3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var ref *field.Field
		for _, workers := range []int{1, 3, 8} {
			dec := New(inner, Options{Blocks: 4, Workers: workers})
			g, err := dec.DecompressStream(bytes.NewReader(stream))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if g.Nx != f.Nx || g.Ny != f.Ny || g.Nz != f.Nz {
				t.Fatalf("%s: dims %dx%dx%d", name, g.Nx, g.Ny, g.Nz)
			}
			if err := compressor.CheckBound(f, g, 1e-3); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if ref == nil {
				ref = g
			} else {
				for i := range ref.Data {
					if ref.Data[i] != g.Data[i] {
						t.Fatalf("%s: workers=%d decode differs at sample %d", name, workers, i)
					}
				}
			}
		}
	}
}

func TestDimensionalSplits(t *testing.T) {
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	c := New(inner, Options{Blocks: 3, Workers: 2})
	for _, dims := range [][3]int{{257, 1, 1}, {64, 48, 1}, {16, 16, 12}, {5, 1, 1}} {
		f := testField(t, dims[0], dims[1], dims[2])
		stream, err := c.Compress(f, 1e-3)
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		g, err := c.Decompress(stream)
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		if err := compressor.CheckBound(f, g, 1e-3); err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
	}
}

// TestSplitFieldSlabsAreContiguous pins what carolgate's fan-out relies on
// to post body[off:off+len] per slab instead of re-serialising it: the
// slabs are consecutive, gap-free ranges of the field's samples, in order,
// with the dims ExpectedSlabDims derives from the shape alone.
func TestSplitFieldSlabsAreContiguous(t *testing.T) {
	for _, dims := range [][3]int{{611, 1, 1}, {53, 37, 1}, {40, 33, 17}, {5, 1, 1}, {4, 2, 1}, {3, 3, 2}} {
		f := field.New("f", dims[0], dims[1], dims[2])
		for _, chunks := range []int{1, 2, 3, 7} {
			slabs := SplitField(f, chunks)
			want := ExpectedSlabDims(f.Nx, f.Ny, f.Nz, chunks)
			if len(slabs) != len(want) || len(slabs) > chunks {
				t.Fatalf("dims %v chunks %d: %d slabs, geometry says %d", dims, chunks, len(slabs), len(want))
			}
			off := 0
			for i, s := range slabs {
				if got := [3]int{s.Nx, s.Ny, s.Nz}; got != want[i] {
					t.Errorf("dims %v chunks %d slab %d: dims %v, geometry says %v", dims, chunks, i, got, want[i])
				}
				if &s.Data[0] != &f.Data[off] {
					t.Fatalf("dims %v chunks %d slab %d: does not start at sample %d", dims, chunks, i, off)
				}
				off += len(s.Data)
			}
			if off != len(f.Data) {
				t.Errorf("dims %v chunks %d: slabs cover %d of %d samples", dims, chunks, off, len(f.Data))
			}
		}
	}
}

// TestPipelineHammer drives many concurrent pipeline compressions and
// decompressions through one shared codec; run with -race this is the
// pipeline's data-race regression test (pooled huffman/bitstream/flate
// state is shared beneath it).
func TestPipelineHammer(t *testing.T) {
	f := testField(t, 24, 16, 8)
	inner, err := codecs.ByName("sz3")
	if err != nil {
		t.Fatal(err)
	}
	c := New(inner, Options{Blocks: 4, Workers: 4})
	ref, err := c.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				stream, err := c.Compress(f, 1e-3)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(stream, ref) {
					errs <- errors.New("hammer: stream mismatch")
					return
				}
				g, err := c.Decompress(stream)
				if err != nil {
					errs <- err
					return
				}
				if err := compressor.CheckBound(f, g, 1e-3); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// endlessReader yields zeros forever and counts how much was consumed: a
// hostile "infinite stream" peer.
type endlessReader struct{ n int64 }

func (r *endlessReader) Read(p []byte) (int, error) {
	r.n += int64(len(p))
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func TestHostileHeader(t *testing.T) {
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	c := New(inner, Options{})
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), make([]byte, 16)...),
		"truncated": append([]byte("CPL1"), 1, 2),
	}
	for name, stream := range cases {
		if _, err := c.DecompressStream(bytes.NewReader(stream)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHostileBlockCount(t *testing.T) {
	// nblocks beyond MaxCount must be refused with ErrLimit before any
	// frame is read. The dims pass the element cap, so the count guard is
	// the one that must fire.
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	c := New(inner, Options{Limits: safedec.Limits{MaxCount: 64}})
	hdr := make([]byte, headerLen)
	copy(hdr, Magic[:])
	putU32(hdr[4:], 1<<20)
	putU32(hdr[8:], 1)
	putU32(hdr[12:], 1)
	putU32(hdr[16:], 1<<20)
	er := &endlessReader{}
	safedectest.Rejects(t, 0, func() error {
		_, err := c.DecompressStream(io.MultiReader(bytes.NewReader(hdr), er))
		return err
	})
	if er.n != 0 {
		t.Fatalf("read %d bytes past a rejected header", er.n)
	}
}

func TestHostileBlockLength(t *testing.T) {
	// A frame claiming more bytes than MaxAlloc must be refused before the
	// buffer is allocated — and before the body is consumed.
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	c := New(inner, Options{Limits: safedec.Limits{MaxAlloc: 1 << 16}})
	var buf bytes.Buffer
	hdr := make([]byte, headerLen)
	copy(hdr, Magic[:])
	putU32(hdr[4:], 16)
	putU32(hdr[8:], 1)
	putU32(hdr[12:], 1)
	putU32(hdr[16:], 1)
	buf.Write(hdr)
	var lbuf [4]byte
	putU32(lbuf[:], 1<<31-1) // ~2 GiB claimed block
	buf.Write(lbuf[:])
	er := &endlessReader{}
	safedectest.Rejects(t, 1<<16, func() error {
		_, err := c.DecompressStream(io.MultiReader(&buf, er))
		return err
	})
	if er.n != 0 {
		t.Fatalf("consumed %d bytes of a rejected block body", er.n)
	}
}

// TestContainerElementsOverLimit: the container's dims are charged to
// MaxElements before the output field is allocated — every block here fits
// the cap on its own, only their sum does not.
func TestContainerElementsOverLimit(t *testing.T) {
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := New(inner, Options{Blocks: 16}).Compress(field.New("zeros", 256, 64, 64), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	c := New(inner, Options{Limits: safedec.Limits{MaxElements: 1 << 16}})
	safedectest.Rejects(t, 4<<16, func() error {
		_, err := c.DecompressStream(bytes.NewReader(stream))
		return err
	})
}

func TestEndlessInputBounded(t *testing.T) {
	// A valid header followed by an endless zero stream: every frame
	// header parses as a zero-length block whose decode fails, so the
	// pipeline walks exactly the 512 declared frames — consumption is
	// bounded by the vetted per-frame sizes, never by the (infinite)
	// input length.
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	const maxAlloc = 1 << 12
	c := New(inner, Options{Workers: 2, Limits: safedec.Limits{MaxAlloc: maxAlloc}})
	hdr := make([]byte, headerLen)
	copy(hdr, Magic[:])
	putU32(hdr[4:], 1)
	putU32(hdr[8:], 1)
	putU32(hdr[12:], 512)
	putU32(hdr[16:], 512) // 512 blocks, bodies all zero garbage
	er := &endlessReader{}
	if _, err := c.DecompressStream(io.MultiReader(bytes.NewReader(hdr), er)); err == nil {
		t.Fatal("endless garbage accepted")
	}
	if limit := int64(512 * 4); er.n > limit {
		t.Fatalf("consumed %d bytes from hostile stream, want <= %d", er.n, limit)
	}
}

func TestTruncatedStream(t *testing.T) {
	f := testField(t, 16, 8, 8)
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	c := New(inner, Options{Blocks: 4})
	stream, err := c.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{headerLen + 2, len(stream) / 2, len(stream) - 1} {
		if _, err := c.DecompressStream(bytes.NewReader(stream[:cut])); !errors.Is(err, safedec.ErrTruncated) {
			t.Errorf("cut %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

// failingCodec fails on the block whose sample count is failLen.
type failingCodec struct {
	compressor.Codec
	failLen int
}

func (c failingCodec) Compress(f *field.Field, eb float64) ([]byte, error) {
	if f.Len() == c.failLen {
		return nil, errors.New("injected failure")
	}
	return c.Codec.Compress(f, eb)
}

func TestCompressBlockError(t *testing.T) {
	// An error on one block must surface (with its index) and not hang the
	// pool.
	inner, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 8, 8, 7) // z slabs of 1, 2, 2, 2 planes: block 0 is the short one
	c := New(failingCodec{inner, 8 * 8}, Options{Blocks: 4, Workers: 2})
	if _, err := c.Compress(f, 1e-3); err == nil || !strings.Contains(err.Error(), "block 0") {
		t.Fatalf("err = %v, want block 0's failure", err)
	}
}

func TestDefaultsUseGOMAXPROCS(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Blocks != runtime.GOMAXPROCS(0) || o.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("defaults %+v", o)
	}
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// TestFanOut: results arrive in index order regardless of completion
// order, concurrency stays bounded, and the first error cancels the rest.
func TestFanOut(t *testing.T) {
	var mu sync.Mutex
	cur, peak := 0, 0
	out, err := FanOut(16, 3, func(i int) ([]byte, error) {
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		time.Sleep(time.Duration(16-i) * time.Millisecond) // later items finish first
		mu.Lock()
		cur--
		mu.Unlock()
		return []byte{byte(i)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 16 {
		t.Fatalf("FanOut returned %d results", len(out))
	}
	for i, b := range out {
		if len(b) != 1 || b[0] != byte(i) {
			t.Fatalf("result %d = %v, out of order", i, b)
		}
	}
	if peak > 3 {
		t.Fatalf("observed %d concurrent workers, bound is 3", peak)
	}
}

func TestFanOutError(t *testing.T) {
	wantErr := errors.New("shard down")
	_, err := FanOut(8, 2, func(i int) ([]byte, error) {
		if i == 3 {
			return nil, wantErr
		}
		return []byte{byte(i)}, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("FanOut error = %v, want %v", err, wantErr)
	}
}

// TestFanOutSerial: with one worker the items run in index order in the
// caller's goroutine, and the first error stops the rest from running.
func TestFanOutSerial(t *testing.T) {
	wantErr := errors.New("fold failed")
	var ran []int
	_, err := FanOut(8, 1, func(i int) (int, error) {
		ran = append(ran, i)
		if i == 3 {
			return 0, wantErr
		}
		return i, nil
	})
	if err != wantErr {
		t.Fatalf("FanOut error = %v, want %v unwrapped", err, wantErr)
	}
	if !slices.Equal(ran, []int{0, 1, 2, 3}) {
		t.Fatalf("ran items %v, want [0 1 2 3]", ran)
	}
}
