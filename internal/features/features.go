// Package features computes the five compressibility features FXRZ
// identified and CAROL reuses (§5.4 of the paper): mean value, value range,
// mean neighbor difference (MND), mean Lorenzo difference (MLD) and mean
// spline difference (MSD).
//
// Three extraction strategies are provided, matching the paper's Figure 6:
//
//   - ExtractFull: serial, every interior point (FXRZ without sampling);
//   - ExtractSampled: serial with point-wise stride sampling (FXRZ's
//     production configuration, stride 4);
//   - ExtractParallel: CAROL's accelerated extractor. The paper runs this
//     on a GPU; this repository maps the same design onto goroutines —
//     surface points are excluded (no boundary branches in the inner loop),
//     sampling is block-wise rather than point-wise (coalesced access), and
//     each sampled block accumulates into its own partial sums (the
//     shared-memory reduction), merged in block order — so the features
//     are bit-identical for any worker count. See DESIGN.md §2 for the
//     substitution rationale.
package features

import (
	"math"
	"time"

	"carol/internal/field"
	"carol/internal/obs"
	"carol/internal/pipeline"
)

// ExtractParallel metrics (obs.Default). The plan/scan split mirrors the
// GPU original's kernel-launch vs kernel-execution phases: plan is the
// serial block-sampling setup, scan is the blocks' accumulation pass.
// Scan time is observed once per sampled block, so the spread of the
// features_extract_scan_seconds histogram shows how uneven the blocks'
// costs are (edge blocks are clipped to the interior).
var (
	extractSeconds     = obs.Default.Histogram("features_extract_seconds", obs.LatencyBuckets())
	extractPlanSeconds = obs.Default.Histogram("features_extract_plan_seconds", obs.LatencyBuckets())
	extractScanSeconds = obs.Default.Histogram("features_extract_scan_seconds", obs.LatencyBuckets())
	extractCalls       = obs.Default.Counter("features_extract_calls_total")
	extractBlocks      = obs.Default.Counter("features_extract_blocks_total")
	extractPoints      = obs.Default.Counter("features_extract_points_total")
)

// Count is the number of features in a Vector.
const Count = 5

// Vector holds the five FXRZ features of a field.
type Vector struct {
	Mean  float64 // mean value
	Range float64 // value range (max - min)
	MND   float64 // mean |neighbor difference|
	MLD   float64 // mean |Lorenzo prediction residual|
	MSD   float64 // mean |spline prediction residual|, summed over axes
}

// Slice returns the features in canonical order, for model input.
func (v Vector) Slice() []float64 {
	return []float64{v.Mean, v.Range, v.MND, v.MLD, v.MSD}
}

// Names returns the canonical feature names.
func Names() []string { return []string{"mean", "range", "mnd", "mld", "msd"} }

// accum collects partial sums over a set of points.
type accum struct {
	n                      int
	sum                    float64
	min, max               float64
	sumMND, sumMLD, sumMSD float64
}

func (a *accum) merge(b accum) {
	if b.n > 0 {
		if a.n == 0 || b.min < a.min {
			a.min = b.min
		}
		if a.n == 0 || b.max > a.max {
			a.max = b.max
		}
	}
	a.n += b.n
	a.sum += b.sum
	a.sumMND += b.sumMND
	a.sumMLD += b.sumMLD
	a.sumMSD += b.sumMSD
}

// pointFeatures accumulates the MND/MLD/MSD contributions of an interior
// point. Callers guarantee 3 <= x < nx-3 etc. for non-trivial dimensions.
func pointFeatures(f *field.Field, x, y, z int, a *accum) {
	d := float64(f.At(x, y, z))
	if a.n == 0 || d < a.min {
		a.min = d
	}
	if a.n == 0 || d > a.max {
		a.max = d
	}
	a.sum += d

	// MND: average of the 2*dims axis neighbors.
	var nbSum float64
	nb := 0
	nbSum += float64(f.At(x-1, y, z)) + float64(f.At(x+1, y, z))
	nb += 2
	if f.Ny > 1 {
		nbSum += float64(f.At(x, y-1, z)) + float64(f.At(x, y+1, z))
		nb += 2
	}
	if f.Nz > 1 {
		nbSum += float64(f.At(x, y, z-1)) + float64(f.At(x, y, z+1))
		nb += 2
	}
	a.sumMND += math.Abs(d - nbSum/float64(nb))

	// MLD: Lorenzo prediction residual (order matched to dimensionality).
	var pred float64
	switch {
	case f.Nz > 1:
		pred = float64(f.At(x-1, y, z)) + float64(f.At(x, y-1, z)) + float64(f.At(x, y, z-1)) +
			float64(f.At(x-1, y-1, z-1)) -
			float64(f.At(x-1, y-1, z)) - float64(f.At(x-1, y, z-1)) - float64(f.At(x, y-1, z-1))
	case f.Ny > 1:
		pred = float64(f.At(x-1, y, z)) + float64(f.At(x, y-1, z)) - float64(f.At(x-1, y-1, z))
	default:
		pred = float64(f.At(x-1, y, z))
	}
	a.sumMLD += math.Abs(d - pred)

	// MSD: cubic spline residual along each non-trivial axis.
	spline := func(m3, m1, p1, p3 float64) float64 {
		return (-m3 + 9*m1 + 9*p1 - p3) / 16
	}
	msd := math.Abs(d - spline(
		float64(f.At(x-3, y, z)), float64(f.At(x-1, y, z)),
		float64(f.At(x+1, y, z)), float64(f.At(x+3, y, z))))
	if f.Ny > 1 {
		msd += math.Abs(d - spline(
			float64(f.At(x, y-3, z)), float64(f.At(x, y-1, z)),
			float64(f.At(x, y+1, z)), float64(f.At(x, y+3, z))))
	}
	if f.Nz > 1 {
		msd += math.Abs(d - spline(
			float64(f.At(x, y, z-3)), float64(f.At(x, y, z-1)),
			float64(f.At(x, y, z+1)), float64(f.At(x, y, z+3))))
	}
	a.sumMSD += msd
	a.n++
}

// interiorRanges returns the inclusive interior coordinate ranges and
// whether the field has any interior points at all. The x dimension always
// needs ±3 neighbors; y and z only when non-trivial. Dimensions smaller
// than 7 leave no interior.
func interiorRanges(f *field.Field) (x0, x1, y0, y1, z0, z1 int, ok bool) {
	if f.Nx < 7 {
		return 0, 0, 0, 0, 0, 0, false
	}
	x0, x1 = 3, f.Nx-4
	switch {
	case f.Ny == 1:
		y0, y1 = 0, 0
	case f.Ny < 7:
		return 0, 0, 0, 0, 0, 0, false
	default:
		y0, y1 = 3, f.Ny-4
	}
	switch {
	case f.Nz == 1:
		z0, z1 = 0, 0
	case f.Nz < 7:
		return 0, 0, 0, 0, 0, 0, false
	default:
		z0, z1 = 3, f.Nz-4
	}
	return x0, x1, y0, y1, z0, z1, true
}

// finish combines the accumulated sums into a Vector. Mean and range come
// from the visited points (the sampled extractors see only their sample, as
// FXRZ's do); degenerate fields with no interior fall back to a full pass.
func finish(f *field.Field, a accum) Vector {
	if a.n == 0 {
		return Vector{Mean: f.Mean(), Range: f.ValueRange()}
	}
	return Vector{
		Mean:  a.sum / float64(a.n),
		Range: a.max - a.min,
		MND:   a.sumMND / float64(a.n),
		MLD:   a.sumMLD / float64(a.n),
		MSD:   a.sumMSD / float64(a.n),
	}
}

// ExtractFull computes the features over every interior point, serially.
func ExtractFull(f *field.Field) Vector {
	var a accum
	x0, x1, y0, y1, z0, z1, ok := interiorRanges(f)
	if !ok {
		return finish(f, a)
	}
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				pointFeatures(f, x, y, z, &a)
			}
		}
	}
	return finish(f, a)
}

// ExtractSampled computes the features over interior points on a strided
// sub-grid (FXRZ uses stride 4, visiting ~1.5% of a 3D dataset).
func ExtractSampled(f *field.Field, stride int) Vector {
	if stride < 1 {
		stride = 1
	}
	var a accum
	x0, x1, y0, y1, z0, z1, ok := interiorRanges(f)
	if !ok {
		return finish(f, a)
	}
	for z := z0; z <= z1; z += stride {
		for y := y0; y <= y1; y += stride {
			for x := x0; x <= x1; x += stride {
				pointFeatures(f, x, y, z, &a)
			}
		}
	}
	return finish(f, a)
}

// ParallelOptions tunes ExtractParallel. The zero value uses the paper's
// parameters (32-element blocks, 1 of every 4, all cores).
type ParallelOptions struct {
	// BlockSize is the block edge length per non-trivial dimension.
	// Default 32, clamped to the field dimensions.
	BlockSize int
	// Every keeps one block of every N along each dimension. Default 4.
	Every int
	// Workers bounds the goroutines scanning blocks on pipeline.FanOut.
	// Default runtime.GOMAXPROCS(0). It never changes the features.
	Workers int
}

func (o ParallelOptions) withDefaults() ParallelOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = 32
	}
	if o.Every <= 0 {
		o.Every = 4
	}
	return o
}

// blockTask is one sampled block to process.
type blockTask struct {
	x0, x1, y0, y1, z0, z1 int
}

// axisPlan places n sampled blocks of width bs at spacing step along one
// axis, starting at base and never exceeding limit.
type axisPlan struct {
	base, limit, bs, step, n int
}

// slot returns the inclusive coordinate range of block i.
func (p axisPlan) slot(i int) (lo, hi int) {
	lo = p.base + i*p.step
	hi = lo + p.bs - 1
	if hi > p.limit {
		hi = p.limit
	}
	return lo, hi
}

// planAxis computes the sampling plan for one axis's interior range.
func planAxis(lo, hi int, opts ParallelOptions, sampled bool) axisPlan {
	if !sampled || hi <= lo {
		return axisPlan{base: lo, limit: hi, bs: hi - lo + 1, step: 1, n: 1}
	}
	extent := hi - lo + 1
	span := opts.BlockSize * opts.Every
	n := (extent + span - 1) / span
	bs := (extent + opts.Every*n - 1) / (opts.Every * n)
	step := (extent + n - 1) / n
	return axisPlan{base: lo, limit: hi, bs: bs, step: step, n: n}
}

// ExtractParallel computes the features with CAROL's accelerated strategy:
// block-wise sampling, surface exclusion, and per-block partial sums merged
// in block order at the end.
func ExtractParallel(f *field.Field, opts ParallelOptions) Vector {
	start := time.Now()
	defer extractSeconds.ObserveSince(start)
	extractCalls.Inc()
	opts = opts.withDefaults()
	x0, x1, y0, y1, z0, z1, ok := interiorRanges(f)
	if !ok {
		return finish(f, accum{})
	}
	// Per-axis sampling plan: keep a 1/Every fraction of each axis in
	// contiguous blocks of (up to) BlockSize, evenly spread. On the paper's
	// 512^3 inputs this reduces to "32-wide blocks, one of every four"; on
	// scaled-down fields the block width shrinks so the sampled fraction
	// stays (1/Every)^dims instead of ballooning.
	planX := planAxis(x0, x1, opts, f.Nx > 1)
	planY := planAxis(y0, y1, opts, f.Ny > 1)
	planZ := planAxis(z0, z1, opts, f.Nz > 1)
	var tasks []blockTask
	for iz := 0; iz < planZ.n; iz++ {
		zlo, zhi := planZ.slot(iz)
		for iy := 0; iy < planY.n; iy++ {
			ylo, yhi := planY.slot(iy)
			for ix := 0; ix < planX.n; ix++ {
				xlo, xhi := planX.slot(ix)
				tasks = append(tasks, blockTask{xlo, xhi, ylo, yhi, zlo, zhi})
			}
		}
	}

	extractPlanSeconds.ObserveSince(start)
	extractBlocks.Add(int64(len(tasks)))

	// One partial per block, whatever the worker count: the merge below
	// adds the same partials in the same order on any host. The scan cannot
	// fail, so FanOut's error is always nil.
	partials, _ := pipeline.FanOut(len(tasks), opts.Workers, func(ti int) (accum, error) {
		scanStart := time.Now()
		defer extractScanSeconds.ObserveSince(scanStart)
		var a accum
		t := tasks[ti]
		for z := t.z0; z <= t.z1; z++ {
			for y := t.y0; y <= t.y1; y++ {
				for x := t.x0; x <= t.x1; x++ {
					pointFeatures(f, x, y, z, &a)
				}
			}
		}
		return a, nil
	})
	var total accum
	for _, p := range partials {
		total.merge(p)
	}
	extractPoints.Add(int64(total.n))
	return finish(f, total)
}
