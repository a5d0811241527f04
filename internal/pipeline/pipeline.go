// Package pipeline runs block-parallel streaming compression on top of any
// codec: the field is split into slabs along its slowest-varying axis, each
// slab is compressed on a bounded worker pool, and the streams are emitted
// in order onto an io.Writer as they complete — the whole compressed output
// is never resident at once, and neither is more than a bounded window of
// in-flight blocks. Decompression mirrors this: block frames are read one
// at a time, decoded on the pool, and assembled in order.
//
// Determinism: block boundaries depend only on (dims, Blocks) and every
// block is emitted in index order, so the container bytes are identical for
// any Workers value — parallelism changes wall-clock time, never output.
// This is what lets throughput be gated (bench/README.md) while
// conformance streams stay stable.
//
// The container framing is deliberately sequential-friendly: magic, dims,
// block count, then length-prefixed block frames back to back. Unlike the
// chunked package's up-front length table (kept for compatibility), a
// writer needs no seek and a reader needs no more lookahead than one frame
// header.
package pipeline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/safedec"
)

// Magic identifies pipeline containers ("CPL1").
var Magic = [4]byte{'C', 'P', 'L', '1'}

// headerLen is the fixed container prefix: magic + nx, ny, nz + nblocks.
const headerLen = 4 + 4*4

// Options tunes the pipeline. Zero values take defaults.
type Options struct {
	// Blocks is the number of slabs the field is split into.
	// Default: GOMAXPROCS, clamped to the splittable extent.
	Blocks int
	// Workers is the number of concurrent codec invocations.
	// Default: GOMAXPROCS.
	Workers int
	// Limits bounds what DecompressStream will allocate or buffer from
	// container-claimed sizes. Zero-value fields take safedec defaults.
	Limits safedec.Limits
}

func (o Options) withDefaults() Options {
	if o.Blocks <= 0 {
		o.Blocks = runtime.GOMAXPROCS(0)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	o.Limits = o.Limits.Norm()
	return o
}

// SlabRanges splits [0, n) into at most k contiguous non-empty ranges. It
// is the single source of block geometry for this package and the chunked
// container format, which both re-derive decoder-side dims from it.
func SlabRanges(n, k int) [][2]int {
	if k > n {
		k = n
	}
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// SplitField cuts f into at most chunks slabs along its slowest-varying
// non-trivial axis, with ExpectedSlabDims' geometry. Slabs alias f's data;
// no samples are copied.
func SplitField(f *field.Field, chunks int) []*field.Field {
	axis := 'x'
	if f.Nz > 1 {
		axis = 'z'
	} else if f.Ny > 1 {
		axis = 'y'
	}
	dims := ExpectedSlabDims(f.Nx, f.Ny, f.Nz, chunks)
	out := make([]*field.Field, len(dims))
	off := 0
	for i, d := range dims {
		n := d[0] * d[1] * d[2]
		out[i] = field.FromData(fmt.Sprintf("%s/%c%d", f.Name, axis, i), d[0], d[1], d[2], f.Data[off:off+n])
		off += n
	}
	return out
}

// ExpectedSlabDims recomputes encoder slab geometry from container
// dimensions and block count, so decoders can refuse containers whose
// decoded blocks claim anything else.
func ExpectedSlabDims(nx, ny, nz, n int) [][3]int {
	var ranges [][2]int
	var mk func(r [2]int) [3]int
	switch {
	case nz > 1:
		ranges = SlabRanges(nz, n)
		mk = func(r [2]int) [3]int { return [3]int{nx, ny, r[1] - r[0]} }
	case ny > 1:
		ranges = SlabRanges(ny, n)
		mk = func(r [2]int) [3]int { return [3]int{nx, r[1] - r[0], 1} }
	default:
		ranges = SlabRanges(nx, n)
		mk = func(r [2]int) [3]int { return [3]int{r[1] - r[0], 1, 1} }
	}
	out := make([][3]int, len(ranges))
	for i, r := range ranges {
		out[i] = mk(r)
	}
	return out
}

// runOrdered drives the block pipeline: launch(i) is called for i in
// [0, n) on a single launcher goroutine, strictly in index order (it is
// where sequential work like reading the next input frame belongs); the
// closure it returns runs on one of at most `workers` pool goroutines; and
// emit(i, v) is invoked strictly in index order as results become
// available. At most 2*workers results are buffered ahead of the consumer,
// so memory stays bounded regardless of how uneven per-block times are.
// The first error stops useful work; remaining in-flight blocks are
// drained so no goroutine leaks.
func runOrdered[T any](n, workers int, launch func(i int) func() (T, error), emit func(i int, v T) error) error {
	type result struct {
		v   T
		err error
	}
	futures := make(chan chan result, 2*workers)
	sem := make(chan struct{}, workers)
	go func() {
		for i := 0; i < n; i++ {
			ch := make(chan result, 1)
			futures <- ch // bounds the reorder window (and launch read-ahead)
			work := launch(i)
			sem <- struct{}{} // bounds concurrency before the go statement
			go func(work func() (T, error), ch chan<- result) {
				defer func() { <-sem }()
				v, err := work()
				ch <- result{v, err}
			}(work, ch)
		}
		close(futures)
	}()
	var firstErr error
	i := 0
	for ch := range futures {
		r := <-ch
		if firstErr == nil {
			if r.err != nil {
				firstErr = fmt.Errorf("pipeline: block %d: %w", i, r.err)
			} else if err := emit(i, r.v); err != nil {
				firstErr = err
			}
		}
		i++
	}
	return firstErr
}

// Codec runs a compressor.Codec block-parallel behind both the slice-based
// compressor.Codec interface and the streaming CompressStream /
// DecompressStream pair. Its two views are bit-compatible: Compress returns
// exactly the bytes CompressStream writes.
type Codec struct {
	inner compressor.Codec
	opts  Options
}

// New wraps inner in a block-pipeline codec.
func New(inner compressor.Codec, opts Options) *Codec {
	return &Codec{inner: inner, opts: opts.withDefaults()}
}

// Name implements compressor.Codec.
func (c *Codec) Name() string { return c.inner.Name() }

var _ compressor.Codec = (*Codec)(nil)

// CompressStream writes the CPL1 container of f onto w: split, compress blocks
// on the worker pool, emit frames in order. Peak memory is the field plus
// O(Workers) compressed blocks.
func (c *Codec) CompressStream(w io.Writer, f *field.Field, eb float64) error {
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return err
	}
	slabs := SplitField(f, c.opts.Blocks)
	var hdr [headerLen]byte
	copy(hdr[:], Magic[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.Nx))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.Ny))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(f.Nz))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(slabs)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pipeline: header write: %w", err)
	}
	return runOrdered(len(slabs), c.opts.Workers,
		func(i int) func() ([]byte, error) {
			slab := slabs[i]
			return func() ([]byte, error) { return c.inner.Compress(slab, eb) }
		},
		func(i int, buf []byte) error {
			var lbuf [4]byte
			binary.LittleEndian.PutUint32(lbuf[:], uint32(len(buf)))
			if _, err := w.Write(lbuf[:]); err != nil {
				return fmt.Errorf("pipeline: frame write: %w", err)
			}
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("pipeline: frame write: %w", err)
			}
			return nil
		})
}

// Compress implements compressor.Codec by streaming into memory.
func (c *Codec) Compress(f *field.Field, eb float64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(f.SizeBytes() / 4)
	if err := c.CompressStream(&buf, f, eb); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Header is what a CPL1 container's fixed prefix says: the field's dims and
// each block's dims, in order.
type Header struct {
	Nx, Ny, Nz int
	Blocks     [][3]int
}

// ParseHeader validates the fixed prefix at the start of a CPL1 container:
// its magic, its dims against lim.Elements, its block count against
// lim.Count, and that the blocks tile the field. Every container-claimed
// size is checked before anything is allocated from it.
func ParseHeader(b []byte, lim safedec.Limits) (Header, error) {
	if len(b) < headerLen {
		return Header{}, fmt.Errorf("pipeline: short container header: %w", safedec.ErrTruncated)
	}
	if [4]byte(b[:4]) != Magic {
		return Header{}, fmt.Errorf("pipeline: bad container magic: %w", safedec.ErrCorrupt)
	}
	h := Header{
		Nx: int(binary.LittleEndian.Uint32(b[4:])),
		Ny: int(binary.LittleEndian.Uint32(b[8:])),
		Nz: int(binary.LittleEndian.Uint32(b[12:])),
	}
	n := int(binary.LittleEndian.Uint32(b[16:]))
	if n <= 0 {
		return Header{}, fmt.Errorf("pipeline: implausible block count %d: %w", n, safedec.ErrCorrupt)
	}
	if err := lim.Count("pipeline blocks", int64(n)); err != nil {
		return Header{}, fmt.Errorf("pipeline: %w", err)
	}
	// Validate the dims product before anyone computes it; a hostile header
	// otherwise overflows the multiply or allocates petabytes.
	if _, err := lim.Elements(h.Nx, h.Ny, h.Nz); err != nil {
		return Header{}, fmt.Errorf("pipeline: container dims: %w", err)
	}
	if h.Blocks = ExpectedSlabDims(h.Nx, h.Ny, h.Nz, n); len(h.Blocks) != n {
		return Header{}, fmt.Errorf("pipeline: %d blocks cannot tile a %dx%dx%d field: %w",
			n, h.Nx, h.Ny, h.Nz, safedec.ErrCorrupt)
	}
	return h, nil
}

// DecompressStream reconstructs the field encoded on r. Frames are read one
// at a time and decoded on the worker pool; the input is never buffered
// beyond the bounded in-flight window, and every container-claimed size is
// validated against the configured limits before it sizes an allocation.
func (c *Codec) DecompressStream(r io.Reader) (*field.Field, error) {
	lim := c.opts.Limits
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pipeline: short container header: %w", safedec.ErrTruncated)
	}
	h, err := ParseHeader(hdr[:], lim)
	if err != nil {
		return nil, err
	}
	want := h.Blocks
	f := field.New("pipeline", h.Nx, h.Ny, h.Nz)
	offsets := make([]int, len(want)+1)
	for i, d := range want {
		offsets[i+1] = offsets[i] + d[0]*d[1]*d[2]
	}

	// Frames are read inside the launch step, which runOrdered runs on a
	// single goroutine in index order: reads stay sequential, and the
	// bounded reorder window doubles as bounded read-ahead — a hostile
	// endless input is never buffered beyond O(Workers) frames, each
	// individually vetted against lim before its buffer is allocated.
	var readFailed error
	failure := func(err error) func() (*field.Field, error) {
		return func() (*field.Field, error) { return nil, err }
	}
	err = runOrdered(len(want), c.opts.Workers,
		func(i int) func() (*field.Field, error) {
			if readFailed != nil {
				return failure(readFailed)
			}
			var lbuf [4]byte
			if _, err := io.ReadFull(r, lbuf[:]); err != nil {
				readFailed = fmt.Errorf("frame header: %w", safedec.ErrTruncated)
				return failure(readFailed)
			}
			l := int64(binary.LittleEndian.Uint32(lbuf[:]))
			if err := lim.Alloc("pipeline block", l); err != nil {
				readFailed = err
				return failure(readFailed)
			}
			buf := make([]byte, l)
			if _, err := io.ReadFull(r, buf); err != nil {
				readFailed = fmt.Errorf("frame body: %w", safedec.ErrTruncated)
				return failure(readFailed)
			}
			d := want[i]
			return func() (*field.Field, error) {
				g, err := c.inner.DecompressLimited(buf, lim)
				if err != nil {
					return nil, err
				}
				if g.Nx != d[0] || g.Ny != d[1] || g.Nz != d[2] {
					return nil, fmt.Errorf("block dims %dx%dx%d, want %dx%dx%d: %w",
						g.Nx, g.Ny, g.Nz, d[0], d[1], d[2], safedec.ErrCorrupt)
				}
				return g, nil
			}
		},
		func(i int, g *field.Field) error {
			copy(f.Data[offsets[i]:offsets[i+1]], g.Data)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Decompress implements compressor.Codec.
func (c *Codec) Decompress(stream []byte) (*field.Field, error) {
	return c.DecompressStream(bytes.NewReader(stream))
}

// DecompressLimited implements compressor.Codec.
func (c *Codec) DecompressLimited(stream []byte, lim safedec.Limits) (*field.Field, error) {
	cc := *c
	cc.opts.Limits = lim.Norm()
	return cc.DecompressStream(bytes.NewReader(stream))
}

// CompressSlabs compresses each slab with codec on a bounded worker pool,
// returning the per-slab streams in slab order. It is the fan-out primitive
// the chunked container format builds on.
func CompressSlabs(codec compressor.Codec, slabs []*field.Field, eb float64, workers int) ([][]byte, error) {
	return FanOut(len(slabs), workers, func(i int) ([]byte, error) {
		return codec.Compress(slabs[i], eb)
	})
}

// FanOut runs work(i) for i in [0, n) on a bounded worker pool and
// returns the results in index order, stopping useful work at the first
// error (in-flight items drain so no goroutine leaks). It reuses the
// runOrdered launcher discipline — sequential launch, bounded concurrency
// acquired before each go statement, bounded reorder window — for callers
// whose per-item work is not a codec invocation, e.g. carolgate fanning a
// field's slabs out to the shards that own them.
func FanOut[T any](n, workers int, work func(i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	err := runOrdered(n, workers,
		func(i int) func() (T, error) {
			return func() (T, error) { return work(i) }
		},
		func(i int, v T) error {
			out[i] = v
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressSlabs decodes each stream with codec under lim on a bounded
// worker pool, returning decoded slabs in stream order.
func DecompressSlabs(codec compressor.Codec, chunks [][]byte, lim safedec.Limits, workers int) ([]*field.Field, error) {
	lim = lim.Norm()
	return FanOut(len(chunks), workers, func(i int) (*field.Field, error) {
		return codec.DecompressLimited(chunks[i], lim)
	})
}
