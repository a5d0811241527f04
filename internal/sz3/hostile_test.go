package sz3

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/huffman"
	"carol/internal/zpool"
)

// assemble builds an sz3 stream for f's dims from the parts of a payload, so
// a test can hand the decoder counts no encoder would write.
func assemble(t testing.TB, f *field.Field, eb float64, mode Mode, anch []float32, codes []uint32, outliers []float32) []byte {
	t.Helper()
	p := []byte{byte(mode)}
	for _, list := range [][]float32{anch, outliers} {
		p = binary.LittleEndian.AppendUint32(p, uint32(len(list)))
		for _, v := range list {
			p = binary.LittleEndian.AppendUint32(p, math.Float32bits(v))
		}
	}
	p = huffman.AppendEncode(p, codes)
	out := compressor.AppendHeader(nil, compressor.Header{
		Magic: compressor.MagicSZ3, Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, EB: eb,
	})
	out, err := zpool.AppendDeflate(out, p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCountsMustMatchDims: a stream carries exactly the anchors, codes and
// outliers its dims and its zero codes call for. One too many of any used to
// decode silently (to the same field as the stream without it); one too few
// was, and is, an error.
func TestCountsMustMatchDims(t *testing.T) {
	f := fuzzField(9, 12, 7, 5, 4)
	eb := boundFor(f, 0) // tight on rough data: some samples are stored raw
	for _, mode := range []Mode{ModeInterpolation, ModeLorenzo} {
		anch, codes, outliers, _ := refEncode(f, eb, mode)
		if len(outliers) < 2 {
			t.Fatalf("mode %d: %d outliers, the test needs a few", mode, len(outliers))
		}
		real, err := NewMode(mode).Compress(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New().Decompress(real)
		if err != nil {
			t.Fatal(err)
		}
		exact := assemble(t, f, eb, mode, anch, codes, outliers)
		got, err := New().Decompress(exact)
		if err != nil {
			t.Fatalf("mode %d: exact counts rejected: %v", mode, err)
		}
		sameSamples(t, "hand-assembled stream", got.Data, want.Data)

		more := func(s []float32) []float32 { return append(append([]float32(nil), s...), 1.5) }
		type parts struct {
			name     string
			anch     []float32
			codes    []uint32
			outliers []float32
		}
		cases := []parts{
			{"surplus anchor", more(anch), codes, outliers},
			{"surplus code", anch, append(append([]uint32(nil), codes...), quantRadius), outliers},
			{"surplus zero code", anch, append(append([]uint32(nil), codes...), 0), more(outliers)},
			{"missing code", anch, codes[:len(codes)-1], outliers},
			{"surplus outlier", anch, codes, more(outliers)},
			{"missing outlier", anch, codes, outliers[:len(outliers)-1]},
			{"no outliers", anch, codes, nil},
		}
		if mode == ModeInterpolation {
			cases = append(cases, parts{"missing anchor", nil, codes, outliers})
		}
		for _, c := range cases {
			_, err := New().Decompress(assemble(t, f, eb, mode, c.anch, c.codes, c.outliers))
			if !errors.Is(err, compressor.ErrBadStream) {
				t.Errorf("mode %d, %s: err = %v, want ErrBadStream", mode, c.name, err)
			}
		}
	}
}

// perRun is testing.AllocsPerRun with a collection before every run, and the
// bytes next to the objects.
func perRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var nObj, nBytes uint64
	for i := 0; i <= runs; i++ { // run 0 warms up
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if i > 0 {
			nObj += after.Mallocs - before.Mallocs
			nBytes += after.TotalAlloc - before.TotalAlloc
		}
	}
	return float64(nObj) / float64(runs), float64(nBytes) / float64(runs)
}

// TestSZ3SteadyStateAllocs pins what a warm codec allocates: the result and
// a small constant — the sync.Pools of zpool and huffman re-registering
// after the collection between runs, which the scratch itself survives, and
// on the way back the link tables compress/flate builds for each
// dynamic-Huffman block of the tail: a few dozen objects, a few KiB. (It was
// 3.9 MB per 64^3 compress and 4.6 MB per decompress.)
func TestSZ3SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	c := New()
	f := smoothField(64, 64, 64, 3)
	eb := compressor.AbsBound(f, 1e-3)
	stream, err := c.Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	objects, size := perRun(10, func() {
		if _, err := c.Compress(f, eb); err != nil {
			t.Fatal(err)
		}
	})
	if objects > 6 || size > float64(2*len(stream)+1024) {
		t.Errorf("compress: %.1f objects, %.0f bytes per run for a %d-byte stream", objects, size, len(stream))
	}
	objects, size = perRun(10, func() {
		if _, err := c.Decompress(stream); err != nil {
			t.Fatal(err)
		}
	})
	if objects > 64 || size > float64(f.SizeBytes()+16<<10) {
		t.Errorf("decompress: %.1f objects, %.0f bytes per run for a %d-byte field", objects, size, f.SizeBytes())
	}
}
