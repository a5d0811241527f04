// Package secre reimplements the SECRE surrogate-based compression-ratio
// estimation framework (Khan et al., HiPC 2023), which CAROL uses as its
// training-data generator (core contribution 1, §5.1 of the CAROL paper).
//
// For each supported compressor, SECRE estimates the compression ratio a
// full run would achieve by (a) sampling a small fraction of the input and
// (b) running only a subset of the compressor's pipeline stages on the
// sample (Table 1 of the paper):
//
//	SZx:   block-wise sampling, full delta encoding of sampled blocks
//	ZFP:   block-wise sampling, full transform+embedded coding of samples
//	SZ3:   point-wise strided sampling, last interpolation level only,
//	       NO Huffman stage, NO Zstd stage
//	SPERR: chunk-wise sampling, wavelet transform + SPECK coding,
//	       NO outlier pass, NO Zstd stage
//
// The skipped stages are exactly what makes the SZ3/SPERR estimates biased
// (tens of percent) while SZx/ZFP stay within ~1%; CAROL's calibration
// (package calib) corrects that bias.
package secre

import (
	"fmt"
	"math"
	"time"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/obs"
	"carol/internal/sperr"
	"carol/internal/sz3"
	"carol/internal/szp"
	"carol/internal/szx"
	"carol/internal/xrand"
	"carol/internal/zfp"
)

// The paper's sampling rates, adapted down when a field is too small to
// yield a stable sample (the paper's datasets are 512^3-scale; see
// DESIGN.md §2).
const (
	// szxBlockEvery keeps one 128-sample block of every N.
	szxBlockEvery = 128
	// zfpBlockEvery keeps one 4^d block of every N along each dimension
	// (1/64 of a 2D field, 1/512 of 3D).
	zfpBlockEvery = 8
	// SPERR samples chunks of sperrChunkSize per dimension, one of every
	// sperrChunkEvery.
	sperrChunkSize  = 32
	sperrChunkEvery = 4
)

// Options tunes the sampling aggressiveness of the surrogates. The zero
// value selects the paper's defaults.
type Options struct {
	// SZ3Stride is the point-wise sampling stride. Default 5 (the paper's).
	SZ3Stride int
	// MinSampledBlocks is the minimum number of blocks the block-wise
	// surrogates aim to sample; Every is reduced for small inputs so the
	// estimate does not hang off one or two blocks. Default 16.
	MinSampledBlocks int
	// EntropySized sizes SZ3's codes by their entropy, which stands for
	// Huffman plus DEFLATE, over residuals sampled on every interpolation
	// level (bindSZ3Entropy). False keeps SECRE's fixed width, which trained
	// models and Fig. 2 rest on and which cannot say a ratio above 32/3 once
	// one code leaves the centre.
	EntropySized bool
}

func (o Options) withDefaults() Options {
	if o.SZ3Stride <= 0 {
		o.SZ3Stride = 5
	}
	if o.MinSampledBlocks <= 0 {
		o.MinSampledBlocks = 16
	}
	return o
}

// Estimator is a SECRE surrogate for one compressor.
type Estimator struct {
	name string
	opts Options
	// Metric handles, resolved once at construction (DESIGN.md §10).
	seconds   *obs.Histogram
	estimates *obs.Counter
}

var _ compressor.Estimator = (*Estimator)(nil)

// New returns the surrogate for the named compressor
// ("szx", "zfp", "sz3", "sperr" or the extension codec "szp").
func New(name string, opts Options) (*Estimator, error) {
	switch name {
	case "szx", "zfp", "sz3", "sperr", "szp":
		return &Estimator{
			name:      name,
			opts:      opts.withDefaults(),
			seconds:   obs.Default.Histogram(obs.Label("secre_estimate_seconds", "codec", name), obs.LatencyBuckets()),
			estimates: obs.Default.Counter(obs.Label("secre_estimates_total", "codec", name)),
		}, nil
	default:
		return nil, fmt.Errorf("secre: no surrogate for compressor %q", name)
	}
}

// Name implements compressor.Estimator.
func (e *Estimator) Name() string { return e.name }

// EstimateRatio implements compressor.Estimator: Prepare, then one Ratio.
func (e *Estimator) EstimateRatio(f *field.Field, eb float64) (float64, error) {
	start := time.Now()
	defer e.seconds.ObserveSince(start)
	b, err := e.Prepare(f)
	if err != nil {
		return 0, err
	}
	return b.Ratio(eb)
}

// Bound is a surrogate bound to one field. Everything that does not depend
// on the error bound — validation, the sample, and per codec whatever of
// the sample's content the size formula needs — was taken by Prepare, so
// Ratio costs the per-bound work only: what a search or a collection sweep
// that asks about one field at many bounds should pay. A Bound serves one
// goroutine, and its field must not change while it is in use.
type Bound struct {
	estimates *obs.Counter
	ratio     func(eb float64) float64
}

// Prepare validates f and binds the surrogate to it.
func (e *Estimator) Prepare(f *field.Field) (*Bound, error) {
	b := &Bound{estimates: e.estimates}
	if e.name == "szx" {
		var err error
		if b.ratio, err = e.bindSZx(f); err != nil {
			return nil, err
		}
		return b, nil
	}
	if err := compressor.ValidateArgs(f, 1); err != nil {
		return nil, err
	}
	switch e.name {
	case "zfp":
		b.ratio = e.bindZFP(f)
	case "sz3":
		if e.opts.EntropySized {
			b.ratio = bindSZ3Entropy(f)
		} else {
			b.ratio = e.bindSZ3(f)
		}
	case "szp":
		b.ratio = e.bindSZP(f)
	default:
		b.ratio = e.bindSPERR(f)
	}
	return b, nil
}

// Ratio estimates the compression ratio of the bound field at absolute
// error bound eb, bit for bit what EstimateRatio returns for the pair.
func (b *Bound) Ratio(eb float64) (float64, error) {
	if err := compressor.ValidateBound(eb); err != nil {
		return 0, err
	}
	b.estimates.Inc()
	return b.ratio(eb), nil
}

// blockEvery is the block stride of the delta-family surrogates (szx, szp):
// szxBlockEvery, reduced until MinSampledBlocks are sampled.
func (e *Estimator) blockEvery(totalBlocks int) int {
	every := szxBlockEvery
	if totalBlocks/every < e.opts.MinSampledBlocks {
		every = max(totalBlocks/e.opts.MinSampledBlocks, 1)
	}
	return every
}

// bindSZP samples one 32-sample block of every szxBlockEvery (szp and szx
// share the delta-family sampling pattern) and runs the real per-block
// encoder on each, threading the previous-quant state through the samples.
// The quantized deltas depend on the bound, so nothing is kept between
// bounds but the stride.
func (e *Estimator) bindSZP(f *field.Field) func(float64) float64 {
	totalBlocks := (f.Len() + szp.BlockSize - 1) / szp.BlockSize
	every := e.blockEvery(totalBlocks)
	return func(eb float64) float64 {
		var bits uint64
		sampled := 0
		prev := int64(0)
		for b := 0; b < totalBlocks; b += every {
			start := b * szp.BlockSize
			end := min(start+szp.BlockSize, f.Len())
			var blockBits uint64
			blockBits, prev = szp.EstimateBlockBits(f.Data[start:end], eb, prev)
			bits += blockBits
			sampled++
		}
		estBits := float64(bits) / float64(sampled) * float64(totalBlocks)
		return ratioFromBits(f, estBits)
	}
}

// bindSZx validates f and samples one 128-sample block of every
// szxBlockEvery. A block's encoded size depends on its extrema, its length
// and the bound alone, so the extrema are kept and an estimate is
// arithmetic over them — the real per-block size formula, without reading
// the field again. Where every block is sampled (the search surrogate's
// MinSampledBlocks at 64³) the extrema pass is the field's one read, and it
// tests finiteness on the way.
func (e *Estimator) bindSZx(f *field.Field) (func(float64) float64, error) {
	if f == nil || f.Len() == 0 {
		return nil, compressor.ValidateArgs(f, 1)
	}
	totalBlocks := (f.Len() + szx.BlockSize - 1) / szx.BlockSize
	every := e.blockEvery(totalBlocks)
	if every > 1 {
		if err := compressor.ValidateArgs(f, 1); err != nil {
			return nil, err
		}
	}
	type sampledBlock struct {
		lo, hi float32
		n      int32
	}
	blocks := make([]sampledBlock, 0, (totalBlocks+every-1)/every)
	for b := 0; b < totalBlocks; b += every {
		block := f.Data[b*szx.BlockSize : min((b+1)*szx.BlockSize, f.Len())]
		lo, hi, finite := field.Extrema(block)
		if !finite {
			return nil, compressor.ErrNonFinite
		}
		blocks = append(blocks, sampledBlock{lo, hi, int32(len(block))})
	}
	return func(eb float64) float64 {
		var bits uint64
		for _, b := range blocks {
			bits += szx.BlockBits(b.lo, b.hi, int(b.n), eb)
		}
		estBits := float64(bits) / float64(len(blocks)) * float64(totalBlocks)
		return ratioFromBits(f, estBits)
	}, nil
}

// bindZFP samples one 4^d block of every zfpBlockEvery along each dimension
// and runs the real block pipeline on each. The block coder reads the bound
// only through floor(log2 eb) (zfp's plane cutoff and its all-below-the-
// bound test), so within a binade every estimate is the same number and is
// computed once.
func (e *Estimator) bindZFP(f *field.Field) func(float64) float64 {
	every := zfpBlockEvery
	for every > 1 {
		if sampled, _ := zfp.SampledBlocks(f, every); sampled >= e.opts.MinSampledBlocks {
			break
		}
		every /= 2
	}
	memo := make(map[int]float64)
	return func(eb float64) float64 {
		// A mantissa within rounding of a power of two (but not on it) is
		// left out of the memo: there math.Log2 may land on either side.
		frac, exp := math.Frexp(eb)
		keyed := frac == 0.5 || frac > 0.5+1e-9 && frac < 1-1e-9 //carol:allow floateq Frexp returns exactly 0.5 for a power of two
		if r, ok := memo[exp]; ok && keyed {
			return r
		}
		bits, sampled, total := zfp.EstimateSampledBits(f, eb, every)
		r := ratioFromBits(f, float64(bits)/float64(sampled)*float64(total))
		if keyed {
			memo[exp] = r
		}
		return r
	}
}

// bindSZ3 strided-samples points; an estimate runs only the finest
// interpolation level on the sample and sizes the codes with a fixed bit
// width instead of Huffman — the stage skipping that produces SECRE's
// characteristic SZ3 bias.
func (e *Estimator) bindSZ3(f *field.Field) func(float64) float64 {
	s := f.SampleStride(e.opts.SZ3Stride)
	return func(eb float64) float64 {
		codes := sz3.LastLevelCodes(s, eb)
		if len(codes) == 0 {
			return 1
		}
		// Fixed-width sizing: enough bits for the widest residual seen, plus
		// 32 bits for each outlier (code 0).
		const center = 32768
		maxDev := 0
		outliers := 0
		for _, c := range codes {
			if c == 0 {
				outliers++
				continue
			}
			d := int(c) - center
			if d < 0 {
				d = -d
			}
			if d > maxDev {
				maxDev = d
			}
		}
		width := 1.0
		if maxDev > 0 {
			width = math.Ceil(math.Log2(float64(2*maxDev+1))) + 1
		}
		bitsPerPoint := width*float64(len(codes)-outliers)/float64(len(codes)) +
			32*float64(outliers)/float64(len(codes))
		estBits := bitsPerPoint * float64(f.Len())
		return ratioFromBits(f, estBits)
	}
}

// The entropy-sized SZ3 estimate's constants.
const (
	// histHalf bins either side of the centre keep the histogram at 32 KiB,
	// in cache beside the residuals; a code beyond it is sized as an escape,
	// 32 bits like SZ3's raw outliers.
	histHalf = 4096
	// ditherSD stands in for the reconstruction feedback the residuals were
	// sampled without: the cubic stencil (-1, 9, 9, -1)/16 over errors
	// uniform in ±eb has standard deviation eb·√(164/256 · 1/3), 0.231 of a
	// bin of 2eb.
	ditherSD = 0.231
	// sz3HeaderBits is what an SZ3 stream carries besides its codes: the
	// codec header, mode byte, anchor and outlier counts, DEFLATE framing.
	sz3HeaderBits = 8 * 48
)

// sz3Dither is the fixed dither table: normal, ditherSD bins, a power of
// two long.
var sz3Dither = func() []float64 {
	rng := xrand.New(0x5a3d)
	d := make([]float64, 1024)
	for i := range d {
		for d[i] = 1; math.Abs(d[i]) >= 0.5; {
			d[i] = ditherSD * rng.Norm()
		}
	}
	return d
}()

// bindSZ3Entropy keeps sz3.SampledResiduals of f. An estimate quantizes
// each as round(r/2eb + d_i) into a bounded histogram and sizes the stream
// as (n−1)·H + 32·escapes + 16 bits per distinct code (the Huffman table) +
// the header, the entropy H standing for Huffman plus DEFLATE together.
func bindSZ3Entropy(f *field.Field) func(float64) float64 {
	res := sz3.SampledResiduals(f)
	hist := make([]uint32, 2*histHalf)
	coded := float64(f.Len() - 1) // every point but the anchor
	return func(eb float64) float64 {
		if len(res) == 0 {
			return 1
		}
		inv := 1 / (2 * eb)
		escapes := 0
		for i, r := range res {
			// The code's bin, offset so that truncation rounds: a NaN or ±Inf
			// (a bound so tight the quotient overflows) fails the test too.
			k := float64(r)*inv + sz3Dither[i&(len(sz3Dither)-1)] + (histHalf + 0.5)
			if k >= 0 && k < 2*histHalf {
				hist[int(k)]++
			} else {
				escapes++
			}
		}
		m := float64(len(res))
		bits, distinct := 32*float64(escapes), 0
		for j, c := range hist {
			if c != 0 {
				bits += float64(c) * math.Log2(m/float64(c))
				distinct++
				hist[j] = 0
			}
		}
		return ratioFromBits(f, bits/m*coded+16*float64(distinct)+sz3HeaderBits)
	}
}

// bindSPERR gathers chunk samples; an estimate runs the wavelet+SPECK
// stages on them, skipping the outlier and Zstd passes. The chunk size
// adapts down on fields smaller than ChunkSize*ChunkEvery so the sampled
// fraction stays near (1/ChunkEvery)^dims instead of degenerating to the
// whole field.
func (e *Estimator) bindSPERR(f *field.Field) func(float64) float64 {
	size, every := sperrChunkSize, sperrChunkEvery
	minDim := f.Nx
	if f.Ny > 1 && f.Ny < minDim {
		minDim = f.Ny
	}
	if f.Nz > 1 && f.Nz < minDim {
		minDim = f.Nz
	}
	if size*every > minDim {
		n := (minDim + size*every - 1) / (size * every)
		size = (minDim + every*n - 1) / (every * n)
		if size < 2 {
			size = 2
		}
	}
	s := f.SampleBlocks(field.BlockSpec{Size: size, Every: every})
	if s.Len() < 8 {
		s = f
	}
	return func(eb float64) float64 {
		bits := sperr.EstimateSampledBits(s, eb)
		estBits := float64(bits) / float64(s.Len()) * float64(f.Len())
		return ratioFromBits(f, estBits)
	}
}

// RecordOutcome feeds the online estimator-error metrics: whenever a
// caller has both a surrogate estimate and the ratio a full compressor
// run actually achieved (carolserve's /v1/compress does, and so does any
// calibration pass), it reports the pair here. The gauges expose the
// signed relative error (estimated/actual - 1) the black-box
// ratio-prediction literature tracks — positive means the surrogate
// overestimates, the bias CAROL's calibration corrects.
//
//	secre_estimate_rel_error{codec}   signed relative error of the last pair
//	secre_estimate_abs_rel_error_percent{codec}  |error| histogram, in %
//	secre_outcomes_total{codec}       pairs observed
//
// Non-positive or non-finite inputs are rejected (nothing meaningful to
// compare): an Inf actual would otherwise record a bogus finite -1 error
// and a NaN would poison the gauges. Rejections are counted in
// secre_outcome_rejects_total{codec}.
func RecordOutcome(name string, estimated, actual float64) {
	if !(actual > 0) || math.IsInf(actual, 0) ||
		!(estimated > 0) || math.IsInf(estimated, 0) {
		obs.Default.Counter(obs.Label("secre_outcome_rejects_total", "codec", name)).Inc()
		return
	}
	relErr := estimated/actual - 1
	obs.Default.Gauge(obs.Label("secre_estimate_rel_error", "codec", name)).Set(relErr)
	obs.Default.Histogram(
		obs.Label("secre_estimate_abs_rel_error_percent", "codec", name),
		obs.ExpBuckets(0.5, 2, 10), // 0.5% .. 256%
	).Observe(math.Abs(relErr) * 100)
	obs.Default.Counter(obs.Label("secre_outcomes_total", "codec", name)).Inc()
}

// ratioFromBits converts an estimated payload size in bits into a
// compression ratio, flooring the denominator at one byte.
func ratioFromBits(f *field.Field, bits float64) float64 {
	bytes := bits / 8
	if bytes < 1 {
		bytes = 1
	}
	return float64(f.SizeBytes()) / bytes
}

// Curve evaluates est at each error bound, producing the sampled
// compression function f(e) that both FXRZ-style full runs and SECRE
// surrogate runs feed into model training. A SECRE surrogate is bound to
// the field once for the whole sweep.
func Curve(est compressor.Estimator, f *field.Field, ebs []float64) ([]float64, error) {
	ratio := func(eb float64) (float64, error) { return est.EstimateRatio(f, eb) }
	if e, ok := est.(*Estimator); ok {
		b, err := e.Prepare(f)
		if err != nil {
			return nil, fmt.Errorf("secre: curve: %w", err)
		}
		ratio = b.Ratio
	}
	out := make([]float64, len(ebs))
	for i, eb := range ebs {
		r, err := ratio(eb)
		if err != nil {
			return nil, fmt.Errorf("secre: curve at eb=%g: %w", eb, err)
		}
		out[i] = r
	}
	return out, nil
}

// FullEstimator adapts a full compressor into the Estimator interface by
// actually compressing and measuring — this is what FXRZ's data collection
// does, and the baseline SECRE is compared against.
type FullEstimator struct {
	Codec compressor.Codec
}

// Name implements compressor.Estimator.
func (fe *FullEstimator) Name() string { return fe.Codec.Name() }

// EstimateRatio implements compressor.Estimator by running the compressor.
func (fe *FullEstimator) EstimateRatio(f *field.Field, eb float64) (float64, error) {
	stream, err := fe.Codec.Compress(f, eb)
	if err != nil {
		return 0, err
	}
	return compressor.Ratio(f, stream), nil
}

var _ compressor.Estimator = (*FullEstimator)(nil)
