// Package carol is a pure-Go implementation of CAROL, the ratio-controlled
// scientific lossy-compression framework of Nguyen, Rahman, Di & Becchi
// (ICPP 2024), together with everything it builds on: the SZx, ZFP, SZ3 and
// SPERR error-bounded lossy compressors, the SECRE surrogate ratio
// estimators, bi-modal calibration, Bayesian-optimized random-forest
// training, parallel feature extraction, and the FXRZ baseline framework.
//
// # Quick start
//
// Train a framework on representative fields, then compress new data to a
// requested ratio:
//
//	fw, err := carol.New("sz3", carol.Config{})
//	if err != nil { ... }
//	if _, err := fw.Collect(trainingFields); err != nil { ... }
//	if _, err := fw.Train(); err != nil { ... }
//	stream, achieved, err := fw.CompressToRatio(f, 100) // aim for 100:1
//
// Fields are regular float32 grids (carol.NewField, carol.ReadRawField).
// The four built-in compressors are available by name via
// carol.Compressors; direct error-bounded compression without a ratio
// model goes through carol.Compress / carol.Decompress.
//
// For time-evolving applications whose data drift (the paper's Hurricane
// Isabel case), Framework.Refine folds new fields into the model by
// resuming the Bayesian hyper-parameter search from its checkpoint instead
// of retraining from scratch.
package carol

import (
	"fmt"
	"io"

	"carol/internal/bayesopt"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/core"
	"carol/internal/field"
)

// Field is a named scalar field on a regular grid (float32 payload,
// x-fastest layout). See NewField, FieldFromData and ReadRawField.
type Field = field.Field

// NewField allocates a zero-filled field.
func NewField(name string, nx, ny, nz int) *Field { return field.New(name, nx, ny, nz) }

// FieldFromData wraps an existing sample slice (length must be nx*ny*nz).
func FieldFromData(name string, nx, ny, nz int, data []float32) *Field {
	return field.FromData(name, nx, ny, nz, data)
}

// ReadRawField reads nx*ny*nz little-endian float32 samples — the layout of
// SDRBench-style raw scientific dumps.
func ReadRawField(name string, nx, ny, nz int, r io.Reader) (*Field, error) {
	return field.ReadRaw(name, nx, ny, nz, r)
}

// Framework is a CAROL instance bound to one compressor. Create with New.
type Framework = core.Framework

// Config tunes a Framework; the zero value reproduces the paper's defaults
// (35-bound collection sweep, auto calibration, 10 BO iterations). Data
// collection and model training run on every core by default;
// Config.Workers caps that CPU parallelism for resource-limited hosts (1 =
// fully serial) without changing the result — training sets and forests
// are bit-identical for every value.
type Config = core.Config

// CollectStats reports the cost of a data-collection run.
type CollectStats = core.CollectStats

// TrainStats reports the cost and outcome of a training run.
type TrainStats = core.TrainStats

// Checkpoint is the serializable state of a framework's hyper-parameter
// search; see Framework.Checkpoint and Framework.RestoreCheckpoint.
type Checkpoint = []bayesopt.Observation

// NoCalibration disables surrogate calibration explicitly (see
// Config.CalibrationPoints).
const NoCalibration = core.NoCalibration

// New returns a CAROL framework for the named compressor; see Compressors
// for valid names.
func New(compressorName string, cfg Config) (*Framework, error) {
	return core.New(compressorName, cfg)
}

// Codec is an error-bounded lossy compressor: Compress must keep every
// reconstructed sample within the absolute error bound.
type Codec = compressor.Codec

// Estimator predicts the compression ratio a Codec would achieve, without
// running it in full (the SECRE abstraction).
type Estimator = compressor.Estimator

// NewWith builds a framework from a custom compressor and ratio estimator —
// the extension path for compressors beyond the built-in four. Pair a
// secre-style sampled estimator with Config.CalibrationPoints >= 3 when no
// purpose-built surrogate exists. Collect calls both from up to
// Config.Workers goroutines at once; set Workers to 1 for a pair that is
// not safe for concurrent use.
func NewWith(codec Codec, surrogate Estimator, cfg Config) *Framework {
	return core.NewWith(codec, surrogate, cfg)
}

// Compressors lists the built-in compressor names: szx, zfp, sz3, sperr.
func Compressors() []string { return append([]string(nil), codecs.Names...) }

// Lookup returns a built-in compressor by name.
func Lookup(name string) (Codec, error) { return codecs.ByName(name) }

// Surrogate returns the built-in SECRE surrogate estimator for a
// compressor name.
func Surrogate(name string) (Estimator, error) { return codecs.SurrogateByName(name) }

// Compress runs the named compressor directly with a value-range-relative
// error bound (no ratio model involved).
func Compress(compressorName string, f *Field, relErrorBound float64) ([]byte, error) {
	c, err := codecs.ByName(compressorName)
	if err != nil {
		return nil, err
	}
	if !(relErrorBound > 0) {
		return nil, fmt.Errorf("carol: invalid relative error bound %g", relErrorBound)
	}
	return c.Compress(f, compressor.AbsBound(f, relErrorBound))
}

// Decompress reverses Compress for the named compressor.
func Decompress(compressorName string, stream []byte) (*Field, error) {
	c, err := codecs.ByName(compressorName)
	if err != nil {
		return nil, err
	}
	return c.Decompress(stream)
}

// Ratio returns the compression ratio a stream achieves on f.
func Ratio(f *Field, stream []byte) float64 { return compressor.Ratio(f, stream) }

// MaxAbsError returns the largest absolute reconstruction error between an
// original field and its reconstruction.
func MaxAbsError(orig, recon *Field) float64 { return compressor.MaxAbsErr(orig, recon) }

// PSNR returns the reconstruction's peak signal-to-noise ratio in dB.
func PSNR(orig, recon *Field) float64 { return compressor.PSNR(orig, recon) }

// NRMSE returns the reconstruction's range-normalized RMS error.
func NRMSE(orig, recon *Field) float64 { return compressor.NRMSE(orig, recon) }

// Pearson returns the correlation coefficient between original and
// reconstructed samples.
func Pearson(orig, recon *Field) float64 { return compressor.Pearson(orig, recon) }
