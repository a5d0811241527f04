// Package chunked provides parallel whole-field compression on top of any
// codec, assembling per-slab streams into the CCH1 container (magic, dims,
// chunk count, up-front length table, streams). The format predates the
// pipeline package's streaming container and is kept byte-identical for
// compatibility; the splitting geometry and the bounded worker pool now
// come from internal/pipeline, making this package a thin consumer of the
// shared block pipeline. New code that wants a streaming path should use
// pipeline.Codec directly.
//
// Chunking changes the stream format but not the error bound: every sample
// is still reconstructed within eb.
package chunked

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/pipeline"
	"carol/internal/safedec"
)

// Magic identifies chunked containers ("CCH1"). Exported so routing tiers
// (cmd/carolgate) can recognize a container without decoding it.
var Magic = [4]byte{'C', 'C', 'H', '1'}

// Options tunes chunking. Zero values take defaults.
type Options struct {
	// Chunks is the number of slabs. Default: GOMAXPROCS, clamped to the
	// splittable extent.
	Chunks int
	// Workers is the number of concurrent compressions. Default: GOMAXPROCS.
	Workers int
	// Limits bounds what Decompress will allocate from container-claimed
	// sizes. Zero-value fields take the safedec defaults.
	Limits safedec.Limits
}

func (o Options) withDefaults() Options {
	if o.Chunks <= 0 {
		o.Chunks = runtime.GOMAXPROCS(0)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Compress compresses f with codec at absolute bound eb, slab-parallel.
func Compress(codec compressor.Codec, f *field.Field, eb float64, opts Options) ([]byte, error) {
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	slabs := pipeline.SplitField(f, opts.Chunks)
	streams, err := pipeline.CompressSlabs(codec, slabs, eb, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("chunked: %w", err)
	}
	return Assemble(f.Nx, f.Ny, f.Nz, streams), nil
}

// Assemble builds a CCH1 container from per-slab streams that were split
// with pipeline.SplitField geometry over an nx×ny×nz field: magic, dims,
// chunk count, up-front length table, streams. It is the byte-level
// inverse of Parse and exists separately from Compress so a routing tier
// can compress slabs on remote shards and still emit the exact container
// a local Compress would have.
func Assemble(nx, ny, nz int, streams [][]byte) []byte {
	hdr := Header(nx, ny, nz, streams)
	total := len(hdr)
	for _, s := range streams {
		total += len(s)
	}
	out := append(make([]byte, 0, total), hdr...)
	for _, s := range streams {
		out = append(out, s...)
	}
	return out
}

// Header is the part of Assemble's container that precedes the streams
// (magic, dims, chunk count, length table), for a tier that writes the
// streams out itself and needs no assembled copy.
func Header(nx, ny, nz int, streams [][]byte) []byte {
	out := append(make([]byte, 0, 20+4*len(streams)), Magic[:]...)
	for _, v := range []int{nx, ny, nz, len(streams)} {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	for _, s := range streams {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
	}
	return out
}

// Parse validates a CCH1 container header against lim and returns its
// dimensions and per-chunk streams (aliasing stream, nothing copied).
// Every container-claimed size — dims product, chunk count, lengths — is
// checked before anything is allocated from it, and the chunk count is
// checked against the slab geometry the dimensions imply. Parse does NOT
// decode chunk payloads; pair it with per-chunk decompression (local via
// pipeline.DecompressSlabs, or remote via a shard fan-out).
func Parse(stream []byte, lim safedec.Limits) (nx, ny, nz int, chunks [][]byte, err error) {
	lim = lim.Norm()
	if len(stream) < 20 {
		return 0, 0, 0, nil, fmt.Errorf("chunked: short container: %w", safedec.ErrTruncated)
	}
	if [4]byte(stream[:4]) != Magic {
		return 0, 0, 0, nil, fmt.Errorf("chunked: bad container magic: %w", safedec.ErrCorrupt)
	}
	nx = int(binary.LittleEndian.Uint32(stream[4:]))
	ny = int(binary.LittleEndian.Uint32(stream[8:]))
	nz = int(binary.LittleEndian.Uint32(stream[12:]))
	n := int(binary.LittleEndian.Uint32(stream[16:]))
	if n <= 0 || n > 1<<16 {
		return 0, 0, 0, nil, fmt.Errorf("chunked: implausible chunk count %d: %w", n, safedec.ErrCorrupt)
	}
	if err := lim.Count("chunked chunks", int64(n)); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("chunked: %w", err)
	}
	// Validate the dims product before field.New computes it; a hostile
	// header otherwise overflows the int multiply (or allocates petabytes).
	if _, err := lim.Elements(nx, ny, nz); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("chunked: container dims: %w", err)
	}
	pos := 20
	lens := make([]int, n)
	var total int64
	for i := range lens {
		if pos+4 > len(stream) {
			return 0, 0, 0, nil, fmt.Errorf("chunked: truncated length table: %w", safedec.ErrTruncated)
		}
		lens[i] = int(binary.LittleEndian.Uint32(stream[pos:]))
		total += int64(lens[i])
		pos += 4
	}
	if int64(pos)+total > int64(len(stream)) {
		return 0, 0, 0, nil, fmt.Errorf("chunked: truncated chunk data: %w", safedec.ErrTruncated)
	}
	chunks = make([][]byte, n)
	for i, l := range lens {
		chunks[i] = stream[pos : pos+l]
		pos += l
	}
	if want := pipeline.ExpectedSlabDims(nx, ny, nz, n); len(want) != n {
		return 0, 0, 0, nil, fmt.Errorf("chunked: %d chunks cannot tile a %dx%dx%d field: %w",
			n, nx, ny, nz, safedec.ErrCorrupt)
	}
	return nx, ny, nz, chunks, nil
}

// Decompress reverses Compress, decoding slabs in parallel. Container-claimed
// dimensions, chunk counts and lengths are all validated against opts.Limits
// before anything is allocated from them.
func Decompress(codec compressor.Codec, stream []byte, opts Options) (*field.Field, error) {
	opts = opts.withDefaults()
	lim := opts.Limits.Norm()
	nx, ny, nz, chunks, err := Parse(stream, lim)
	if err != nil {
		return nil, err
	}
	want := pipeline.ExpectedSlabDims(nx, ny, nz, len(chunks))
	slabs, err := pipeline.DecompressSlabs(codec, chunks, lim, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("chunked: %w", err)
	}
	for i, slab := range slabs {
		d := want[i]
		if slab.Nx != d[0] || slab.Ny != d[1] || slab.Nz != d[2] {
			return nil, fmt.Errorf("chunked: slab %d dims %dx%dx%d, want %dx%dx%d: %w",
				i, slab.Nx, slab.Ny, slab.Nz, d[0], d[1], d[2], safedec.ErrCorrupt)
		}
	}

	f := field.New("chunked", nx, ny, nz)
	offset := 0
	for i, slab := range slabs {
		if offset+slab.Len() > f.Len() {
			return nil, fmt.Errorf("chunked: slab %d overflows field", i)
		}
		copy(f.Data[offset:], slab.Data)
		offset += slab.Len()
	}
	if offset != f.Len() {
		return nil, fmt.Errorf("chunked: slabs cover %d of %d samples", offset, f.Len())
	}
	return f, nil
}
