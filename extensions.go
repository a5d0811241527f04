package carol

import (
	"encoding/json"
	"fmt"
	"io"

	"carol/internal/bayesopt"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/fraz"
	"carol/internal/pipeline"
)

// This file holds the public surface of the repository's extensions beyond
// the paper's core design: checkpoint persistence, the FRaZ-style
// trial-and-error baseline, and slab-parallel whole-field compression into
// the one slab container, CPL1 (CCH1, the legacy chunk container, is read
// but never written).

// SaveCheckpoint serializes a framework checkpoint (JSON) so a later
// process can resume training with Framework.RestoreCheckpoint after
// LoadCheckpoint.
func SaveCheckpoint(w io.Writer, ckpt Checkpoint) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(ckpt); err != nil {
		return fmt.Errorf("carol: save checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reverses SaveCheckpoint.
func LoadCheckpoint(r io.Reader) (Checkpoint, error) {
	var ckpt []bayesopt.Observation
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ckpt); err != nil {
		return nil, fmt.Errorf("carol: load checkpoint: %w", err)
	}
	return ckpt, nil
}

// TrialAndErrorResult reports an IterativeCompressToRatio outcome.
type TrialAndErrorResult struct {
	// Stream is the compressed output.
	Stream []byte
	// RelErrorBound is the relative error bound the search selected.
	RelErrorBound float64
	// Achieved is the resulting compression ratio.
	Achieved float64
	// CompressorRuns counts the full compressions performed (the cost a
	// trained CAROL model avoids).
	CompressorRuns int
	// Converged reports whether Achieved is within 3% of the target.
	Converged bool
}

// IterativeCompressToRatio reaches a target compression ratio without any
// trained model, by a FRaZ-style search on the error bound with the real
// compressor (Underwood et al., IPDPS 2020). It is exact but costs several
// compressor runs — the baseline a trained Framework replaces with a single
// prediction. For SZx, ZFP and SZ3 the search runs on their SECRE search
// surrogate first and compresses only where it predicts the target.
func IterativeCompressToRatio(compressorName string, f *Field, targetRatio float64) (TrialAndErrorResult, error) {
	codec, err := codecs.ByName(compressorName)
	if err != nil {
		return TrialAndErrorResult{}, err
	}
	res, err := fraz.Search(codec, f, targetRatio, fraz.Options{Surrogate: codecs.SearchSurrogate(compressorName, f)})
	if err != nil {
		return TrialAndErrorResult{}, err
	}
	return TrialAndErrorResult{
		Stream:         res.Stream,
		RelErrorBound:  res.RelEB,
		Achieved:       res.Achieved,
		CompressorRuns: res.Runs,
		Converged:      res.Converged,
	}, nil
}

// CompressChunked compresses f slab-parallel across the host's cores with
// the named compressor at a value-range-relative error bound, producing the
// pipeline container (CPL1) CompressStream writes with default options
// (decode with DecompressChunked or DecompressStream). The error bound
// guarantee is unchanged; only the container format differs from
// Compress.
func CompressChunked(compressorName string, f *Field, relErrorBound float64) ([]byte, error) {
	codec, err := codecs.ByName(compressorName)
	if err != nil {
		return nil, err
	}
	if !(relErrorBound > 0) {
		return nil, fmt.Errorf("carol: invalid relative error bound %g", relErrorBound)
	}
	return pipeline.New(codec, pipeline.Options{}).Compress(f, compressor.AbsBound(f, relErrorBound))
}

// DecompressChunked reverses CompressChunked. It also reads CCH1, the
// legacy chunk container CompressChunked wrote before CPL1.
func DecompressChunked(compressorName string, stream []byte) (*Field, error) {
	codec, err := codecs.ByName(compressorName)
	if err != nil {
		return nil, err
	}
	return pipeline.New(codec, pipeline.Options{}).Decompress(stream)
}

// StreamOptions tunes the streaming endpoints. The zero value takes
// defaults (GOMAXPROCS blocks and workers).
type StreamOptions struct {
	// Blocks is the number of slabs the field is split into. More blocks
	// smooth load balancing; each costs a per-block codec header.
	Blocks int
	// Workers bounds concurrent codec invocations.
	Workers int
}

// CompressStream compresses f block-parallel with the named compressor at a
// value-range-relative error bound, writing the pipeline container (CPL1)
// to w as blocks complete: neither the compressed stream nor more than a
// bounded window of in-flight blocks is ever resident at once. The output
// is bit-identical for every StreamOptions.Workers value; decode it with
// DecompressStream.
func CompressStream(compressorName string, w io.Writer, f *Field, relErrorBound float64, opts StreamOptions) error {
	codec, err := codecs.ByName(compressorName)
	if err != nil {
		return err
	}
	if !(relErrorBound > 0) {
		return fmt.Errorf("carol: invalid relative error bound %g", relErrorBound)
	}
	p := pipeline.New(codec, pipeline.Options{Blocks: opts.Blocks, Workers: opts.Workers})
	return p.CompressStream(w, f, compressor.AbsBound(f, relErrorBound))
}

// DecompressStream reverses CompressStream (and CompressChunked), reading
// block frames from r one at a time and decoding them in parallel; it reads
// the legacy CCH1 container too. Input claimed by a hostile or corrupt
// stream is validated against the default safedec limits before anything
// is allocated from it; r is never buffered in full.
func DecompressStream(compressorName string, r io.Reader, opts StreamOptions) (*Field, error) {
	codec, err := codecs.ByName(compressorName)
	if err != nil {
		return nil, err
	}
	p := pipeline.New(codec, pipeline.Options{Blocks: opts.Blocks, Workers: opts.Workers})
	return p.DecompressStream(r)
}

// ExtendedCompressors lists every available compressor including the
// extension codecs beyond the paper's four (currently "szp").
func ExtendedCompressors() []string { return append([]string(nil), codecs.ExtendedNames...) }
