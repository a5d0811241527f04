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
// block count, then length-prefixed block frames back to back, so a writer
// needs no seek and a reader needs no more lookahead than one frame header.
// CPL1 is the only slab container the module writes. Its decoders also
// read CCH1, the container internal/chunked wrote before: the same header
// under its own magic, then every block's length in one table ahead of the
// streams. CCH1 is legacy input, read for one release and written nowhere.
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

// legacyMagic identifies the legacy CCH1 container, which only the frame
// walker below reads.
var legacyMagic = [4]byte{'C', 'C', 'H', '1'}

// IsContainer reports whether b starts with a slab container's magic:
// CPL1, or the legacy CCH1. Routing tiers use it to tell a container from
// a single codec stream without decoding either.
func IsContainer(b []byte) bool {
	return len(b) >= 4 && ([4]byte(b[:4]) == Magic || [4]byte(b[:4]) == legacyMagic)
}

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
// is the single source of block geometry: encoders split by it and
// decoders re-derive block dims from it.
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
// The first error (in index order) stops useful work and is returned as
// the work returned it; remaining in-flight blocks are drained so no
// goroutine leaks.
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
				firstErr = r.err
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
	if _, err := w.Write(appendHeader(make([]byte, 0, headerLen), f.Nx, f.Ny, f.Nz, len(slabs))); err != nil {
		return fmt.Errorf("pipeline: header write: %w", err)
	}
	return runOrdered(len(slabs), c.opts.Workers,
		func(i int) func() ([]byte, error) {
			slab := slabs[i]
			return func() ([]byte, error) {
				buf, err := c.inner.Compress(slab, eb)
				return buf, blockErr(i, err)
			}
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

// Header is what a slab container's fixed prefix says: the field's dims and
// each block's dims, in order.
type Header struct {
	Nx, Ny, Nz int
	Blocks     [][3]int
}

// appendHeader appends the fixed CPL1 prefix of an nx×ny×nz field split
// into n blocks.
func appendHeader(dst []byte, nx, ny, nz, n int) []byte {
	dst = append(dst, Magic[:]...)
	for _, v := range []int{nx, ny, nz, n} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// Parts lists the CPL1 container of an nx×ny×nz field whose SplitField
// blocks compressed to streams, in wire order: the header, then each
// block's length and its stream. The streams are not copied, so a tier
// that compressed the blocks elsewhere writes the container out part by
// part; joined, the parts are the bytes Codec.Compress writes.
func Parts(nx, ny, nz int, streams [][]byte) [][]byte {
	lens := make([]byte, 4*len(streams))
	parts := make([][]byte, 0, 1+2*len(streams))
	parts = append(parts, appendHeader(make([]byte, 0, headerLen), nx, ny, nz, len(streams)))
	for i, s := range streams {
		l := lens[4*i : 4*i+4 : 4*i+4]
		binary.LittleEndian.PutUint32(l, uint32(len(s)))
		parts = append(parts, l, s)
	}
	return parts
}

// parseHeader validates the fixed prefix at the start of a slab container
// and reports whether it is the legacy CCH1: its magic, its dims against
// lim.Elements, its block count against lim.Count, and that the blocks tile
// the field. Every container-claimed size is checked before anything is
// allocated from it.
func parseHeader(b []byte, lim safedec.Limits) (h Header, legacy bool, err error) {
	if len(b) < headerLen {
		return Header{}, false, fmt.Errorf("pipeline: short container header: %w", safedec.ErrTruncated)
	}
	if !IsContainer(b) {
		return Header{}, false, fmt.Errorf("pipeline: bad container magic: %w", safedec.ErrCorrupt)
	}
	h = Header{
		Nx: int(binary.LittleEndian.Uint32(b[4:])),
		Ny: int(binary.LittleEndian.Uint32(b[8:])),
		Nz: int(binary.LittleEndian.Uint32(b[12:])),
	}
	n := int(binary.LittleEndian.Uint32(b[16:]))
	if n <= 0 {
		return Header{}, false, fmt.Errorf("pipeline: implausible block count %d: %w", n, safedec.ErrCorrupt)
	}
	if err := lim.Count("pipeline blocks", int64(n)); err != nil {
		return Header{}, false, fmt.Errorf("pipeline: %w", err)
	}
	// Validate the dims product before anyone computes it; a hostile header
	// otherwise overflows the multiply or allocates petabytes.
	if _, err := lim.Elements(h.Nx, h.Ny, h.Nz); err != nil {
		return Header{}, false, fmt.Errorf("pipeline: container dims: %w", err)
	}
	if h.Blocks = ExpectedSlabDims(h.Nx, h.Ny, h.Nz, n); len(h.Blocks) != n {
		return Header{}, false, fmt.Errorf("pipeline: %d blocks cannot tile a %dx%dx%d field: %w",
			n, h.Nx, h.Ny, h.Nz, safedec.ErrCorrupt)
	}
	return h, [4]byte(b[:4]) == legacyMagic, nil
}

// frames is the one frame parser behind every decoder: the function it
// returns yields block i's stream, and is called for i = 0, 1, … in order.
// take(k) hands out the container's next k bytes after the header (views
// of an in-memory container, fresh buffers from a reader). A CPL1 frame is
// its length, then its stream; the legacy CCH1 keeps all n lengths in one
// table ahead of the streams, taken on the first call. Each length is
// checked against lim.Alloc before its stream is taken.
func frames(take func(k int64) ([]byte, error), n int, legacy bool, lim safedec.Limits) func(i int) ([]byte, error) {
	var table []byte
	return func(i int) ([]byte, error) {
		var lp []byte
		var err error
		if legacy {
			if table == nil {
				if table, err = take(4 * int64(n)); err != nil {
					return nil, fmt.Errorf("length table: %w", safedec.ErrTruncated)
				}
			}
			lp = table[4*i:]
		} else if lp, err = take(4); err != nil {
			return nil, fmt.Errorf("frame header: %w", safedec.ErrTruncated)
		}
		l := int64(binary.LittleEndian.Uint32(lp))
		if err := lim.Alloc("pipeline block", l); err != nil {
			return nil, err
		}
		buf, err := take(l)
		if err != nil {
			return nil, fmt.Errorf("frame body: %w", safedec.ErrTruncated)
		}
		return buf, nil
	}
}

// Frames validates a slab container held in memory — CPL1, or the legacy
// CCH1 — and returns its header and its block streams, which alias b.
// Every container-claimed size is checked against lim before it is used,
// and the whole framing before any stream is returned; bytes after the
// last frame are ignored, as DecompressStream never reads them. Pair it
// with per-block decoding: a local codec, or a shard fan-out.
func Frames(b []byte, lim safedec.Limits) (Header, [][]byte, error) {
	lim = lim.Norm()
	h, legacy, err := parseHeader(b, lim)
	if err != nil {
		return Header{}, nil, err
	}
	n, rest := len(h.Blocks), b[headerLen:]
	// Each frame costs at least four bytes of length: refuse a count the
	// input cannot hold before sizing the stream list by it.
	if int64(len(rest)) < 4*int64(n) {
		return Header{}, nil, fmt.Errorf("pipeline: %d blocks in %d bytes: %w", n, len(rest), safedec.ErrTruncated)
	}
	next := frames(func(k int64) ([]byte, error) {
		if k > int64(len(rest)) {
			return nil, io.ErrUnexpectedEOF
		}
		p := rest[:k:k]
		rest = rest[k:]
		return p, nil
	}, n, legacy, lim)
	blocks := make([][]byte, n)
	for i := range blocks {
		if blocks[i], err = next(i); err != nil {
			return Header{}, nil, blockErr(i, err)
		}
	}
	return h, blocks, nil
}

// DecompressStream reconstructs the field encoded on r (CPL1, or the legacy
// CCH1). Frames are read one at a time and decoded on the worker pool; the
// input is never buffered beyond the bounded in-flight window, and every
// container-claimed size is validated against the configured limits before
// it sizes an allocation.
func (c *Codec) DecompressStream(r io.Reader) (*field.Field, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pipeline: short container header: %w", safedec.ErrTruncated)
	}
	h, legacy, err := parseHeader(hdr[:], c.opts.Limits)
	if err != nil {
		return nil, err
	}
	return c.decode(h, frames(func(k int64) ([]byte, error) {
		buf := make([]byte, k)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}, len(h.Blocks), legacy, c.opts.Limits))
}

// Decompress implements compressor.Codec under the configured limits.
func (c *Codec) Decompress(stream []byte) (*field.Field, error) {
	return c.DecompressLimited(stream, c.opts.Limits)
}

// DecompressLimited implements compressor.Codec: Frames splits the
// container, its streams aliasing stream, and the blocks decode as
// DecompressStream's do.
func (c *Codec) DecompressLimited(stream []byte, lim safedec.Limits) (*field.Field, error) {
	cc := *c
	cc.opts.Limits = lim.Norm()
	h, blocks, err := Frames(stream, cc.opts.Limits)
	if err != nil {
		return nil, err
	}
	return cc.decode(h, func(i int) ([]byte, error) { return blocks[i], nil })
}

// decode splices the blocks frame yields into the field h describes: each
// is decoded on the worker pool and must have the dims the header implies.
// frame runs in runOrdered's launch step, on a single goroutine in index
// order: reads stay sequential, and the bounded reorder window doubles as
// bounded read-ahead — a hostile endless input is never buffered beyond
// O(Workers) frames, each vetted against the limits before its buffer is
// allocated.
func (c *Codec) decode(h Header, frame func(i int) ([]byte, error)) (*field.Field, error) {
	lim := c.opts.Limits
	want := h.Blocks
	f := field.New("pipeline", h.Nx, h.Ny, h.Nz)
	offsets := make([]int, len(want)+1)
	for i, d := range want {
		offsets[i+1] = offsets[i] + d[0]*d[1]*d[2]
	}
	var readFailed error
	failure := func(i int, err error) func() (*field.Field, error) {
		return func() (*field.Field, error) { return nil, blockErr(i, err) }
	}
	err := runOrdered(len(want), c.opts.Workers,
		func(i int) func() (*field.Field, error) {
			if readFailed != nil {
				return failure(i, readFailed)
			}
			buf, err := frame(i)
			if err != nil {
				readFailed = err
				return failure(i, err)
			}
			d := want[i]
			return func() (*field.Field, error) {
				g, err := c.inner.DecompressLimited(buf, lim)
				if err != nil {
					return nil, blockErr(i, err)
				}
				if g.Nx != d[0] || g.Ny != d[1] || g.Nz != d[2] {
					return nil, blockErr(i, fmt.Errorf("block dims %dx%dx%d, want %dx%dx%d: %w",
						g.Nx, g.Ny, g.Nz, d[0], d[1], d[2], safedec.ErrCorrupt))
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

// blockErr names the container block a codec call failed on (nil stays nil).
func blockErr(i int, err error) error {
	if err != nil {
		return fmt.Errorf("pipeline: block %d: %w", i, err)
	}
	return nil
}

// FanOut runs work(i) for i in [0, n) on at most workers goroutines (0:
// GOMAXPROCS) and returns the results in index order. It is the module's
// one compute pool: it grows rf's trees and CV folds, scores bayesopt's
// candidates, scans features' blocks, collects core's fields and fans
// carolgate's slabs out to shards. The first error
// in index order is returned unwrapped and stops useful work (in-flight
// items drain so no goroutine leaks); the pool is runOrdered's discipline —
// sequential launch, bounded concurrency acquired before each go
// statement, bounded reorder window. With one worker or at most one item
// the items run in the caller's goroutine and no goroutine starts.
func FanOut[T any](n, workers int, work func(i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	if workers == 1 || n <= 1 {
		for i := range out {
			v, err := work(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
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
