// Package chunked is a forwarding shim over internal/pipeline, which owns
// the one slab container the module writes (CPL1) and the one frame parser
// that reads it and the legacy CCH1 this package used to write. Compress
// and Assemble write CPL1; Decompress and Parse read both. The shim stays
// only because the benchmark harness (bench/) calls it, and goes when the
// benchmark moves to pipeline.
package chunked

import (
	"bytes"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/pipeline"
	"carol/internal/safedec"
)

// Options tunes chunking. Zero values take defaults.
type Options struct {
	// Chunks is the number of slabs (pipeline.Options.Blocks).
	Chunks int
	// Workers is the number of concurrent codec calls.
	Workers int
	// Limits bounds what Decompress will allocate from container-claimed
	// sizes. Zero-value fields take the safedec defaults.
	Limits safedec.Limits
}

// Compress is pipeline.New(codec, {Blocks: Chunks, Workers}).Compress.
func Compress(codec compressor.Codec, f *field.Field, eb float64, opts Options) ([]byte, error) {
	return pipeline.New(codec, pipeline.Options{Blocks: opts.Chunks, Workers: opts.Workers}).Compress(f, eb)
}

// Assemble joins pipeline.Parts into one CPL1 container.
func Assemble(nx, ny, nz int, streams [][]byte) []byte {
	return bytes.Join(pipeline.Parts(nx, ny, nz, streams), nil)
}

// Parse is pipeline.Frames, its header reduced to the field's dims.
func Parse(stream []byte, lim safedec.Limits) (nx, ny, nz int, chunks [][]byte, err error) {
	h, chunks, err := pipeline.Frames(stream, lim)
	return h.Nx, h.Ny, h.Nz, chunks, err
}

// Decompress is pipeline's in-memory decode under opts.Limits.
func Decompress(codec compressor.Codec, stream []byte, opts Options) (*field.Field, error) {
	return pipeline.New(codec, pipeline.Options{Workers: opts.Workers}).DecompressLimited(stream, opts.Limits)
}
