// Package fraz implements the generic trial-and-error fixed-ratio strategy
// of FRaZ (Underwood et al., IPDPS 2020 — reference [24] of the CAROL
// paper): repeatedly run the real compressor, root-finding on the error
// bound until the achieved compression ratio lands within a tolerance of
// the target. It needs no training at all, but costs one full compression
// per probe — the trade-off CAROL's §3.2 uses to motivate learned
// prediction. A caller that has such a prediction hands it in as
// Options.Seed and the search becomes a cheap correction on top of it; one
// that has a cheap surrogate of the codec hands that in too, and the search
// root-finds on it and compresses only for the answer.
package fraz

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/obs"
)

const (
	// relLo and relHi bound the value-range-relative error bounds searched.
	relLo, relHi = 1e-6, 0.5
	// tolerance is the acceptance band |achieved/target - 1|. 0.03 keeps
	// the median miss of served ratio= requests below what bisection into a
	// 5 % band delivered (0.0197), at +0.8 compressor runs over a 5 % band.
	tolerance = 0.03
	// maxRuns caps the compressor runs of a search by default.
	maxRuns = 16
	// minBracket is the log-eb width (~2 % in eb) below which a bracket
	// whose two ends both miss the band holds a jump of the codec's ratio
	// curve (ZFP's accuracy staircase), not a root: the search stops.
	minBracket = 0.02
	// defaultSlope is d ln(ratio) / d ln(eb) assumed before two probes
	// give a secant; error-bounded codecs sit between 0.3 and 0.8.
	defaultSlope = 0.5
	// surrogateTolerance is the predicted miss at which a surrogate solve
	// asks for a real compression, and the real miss below which a surrogate
	// search stops refining inside the band: well inside tolerance, which
	// leaves room for the surrogate's own error (stream headers, sampling).
	surrogateTolerance = 0.004
	// maxSurrogateEvals caps one search's surrogate evaluations (a solve
	// takes 5-15): only a surrogate that leads nowhere gets there.
	maxSurrogateEvals = 96
)

// Search metrics (obs.Default). FRaZ's own evaluation shows the probe
// count dominates end-to-end latency, so the run histograms — split by
// whether a prediction seeded the search — are the numbers to watch.
var (
	searchSeconds = obs.Default.Histogram("fraz_search_seconds", obs.LatencyBuckets())
	// searchRuns is indexed by Result.Resolver().
	searchRuns = map[string]*obs.Histogram{
		ResolverSearch: obs.Default.Histogram(obs.Label("fraz_search_runs", "resolver", ResolverSearch), obs.LinearBuckets(1, 1, maxRuns)),
		ResolverModel:  obs.Default.Histogram(obs.Label("fraz_search_runs", "resolver", ResolverModel), obs.LinearBuckets(1, 1, maxRuns)),
	}
	// searchRunsTotal and ratioMiss are labelled with the searched codec's
	// name, so one-run library calls and served searches report per codec.
	searchRunsTotal = &byCodec[*obs.Counter]{of: func(codec string) *obs.Counter {
		return obs.Default.Counter(obs.Label("fraz_search_compressor_runs_total", "codec", codec))
	}}
	searchConverged = obs.Default.Counter("fraz_search_converged_total")
	searchDiverged  = obs.Default.Counter("fraz_search_unconverged_total")
	searchErrors    = obs.Default.Counter("fraz_search_errors_total")
	probeSeconds    = obs.Default.Histogram("fraz_probe_seconds", obs.LatencyBuckets())
	// Searches given a surrogate: its evaluations per search (compressor
	// runs they are not), and the searches that gave up on it.
	surrogateEvals   = obs.Default.Histogram("fraz_surrogate_evals", obs.LinearBuckets(0, 4, 25))
	surrogateDropped = obs.Default.Counter("fraz_surrogate_dropped_total")
	// jumpSkips counts searches ended without compressing the far side of a
	// jump that the surrogate priced no closer than their best probe.
	jumpSkips = obs.Default.Counter("fraz_surrogate_jump_skips_total")
	// refineRuns counts the compressions a surrogate search spent inside the
	// band, taking an answer already in it closer to the target.
	refineRuns = obs.Default.Counter("fraz_surrogate_refine_runs_total")
	// ratioMiss is |achieved/target - 1| of every finished search; the
	// buckets straddle the acceptance band.
	ratioMiss = &byCodec[*obs.Histogram]{of: func(codec string) *obs.Histogram {
		return obs.Default.Histogram(obs.Label("fraz_ratio_miss", "codec", codec),
			[]float64{0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.25, 0.5, 1})
	}}
)

// byCodec is a metric with a series per codec label; n totals them all.
type byCodec[M any] struct {
	of func(codec string) M
	n  atomic.Int64
}

func (m *byCodec[M]) Count() int64 { return m.n.Load() }
func (m *byCodec[M]) Value() int64 { return m.n.Load() }

// The two values of the resolver label and of carolserve's
// X-Carol-Resolver header.
const (
	ResolverSearch = "search"
	ResolverModel  = "model"
)

// Options carries the search's inputs besides the target.
type Options struct {
	// Seed is a predicted value-range-relative error bound to start from
	// (a trained model's answer for this field and target). Zero, negative
	// and non-finite seeds are ignored and the search starts from the
	// geometric middle of the interval; a seed outside it is clamped,
	// unless MaxRuns is 1.
	Seed float64
	// Surrogate, when set, estimates the codec's ratio on the searched field
	// at an absolute error bound for a small fraction of a compression (a
	// secre.Bound's Ratio). The search then root-finds on it and compresses
	// only where it predicts the target; see solve. Nil leaves the search on
	// real probes alone.
	Surrogate func(eb float64) (float64, error)
	// MaxRuns caps the compressor runs; 0 means 16. A one-run search never
	// steps, so it compresses at the seed as given.
	MaxRuns int
}

// Probe is one compressor run of a search.
type Probe struct {
	RelEB, Ratio float64
}

// Result reports the outcome of a search.
type Result struct {
	// RelEB is the value-range-relative error bound selected.
	RelEB float64
	// Stream is the compressed output at RelEB.
	Stream []byte
	// Achieved is the compression ratio of Stream.
	Achieved float64
	// Runs is the number of full compressor executions performed.
	Runs int
	// Converged reports whether Achieved is within the acceptance band.
	Converged bool
	// Seeded reports whether Options.Seed was usable and started the search.
	Seeded bool
	// Probes lists every run in order; len(Probes) == Runs.
	Probes []Probe
	// SurrogateEvals and SurrogateTime are the calls of Options.Surrogate
	// (none a compressor run) and the time spent in them; SurrogateDropped
	// reports that the search gave up on it and finished on real probes.
	SurrogateEvals   int
	SurrogateTime    time.Duration
	SurrogateDropped bool
}

// Resolver names what started the search: ResolverModel or ResolverSearch.
func (r Result) Resolver() string {
	if r.Seeded {
		return ResolverModel
	}
	return ResolverSearch
}

// Search finds an error bound whose compression ratio approximates
// targetRatio by a bracketed root-find on (ln eb, ln achieved/target),
// which is close to linear for error-bounded codecs. It returns the best
// probe seen. Every search records its probe count, convergence outcome,
// miss and wall time into obs.Default.
func Search(codec compressor.Codec, f *field.Field, targetRatio float64, opts Options) (Result, error) {
	start := time.Now()
	res, err := search(codec, f, targetRatio, opts)
	searchSeconds.ObserveSince(start)
	if err != nil {
		searchErrors.Inc()
		return res, err
	}
	searchRuns[res.Resolver()].Observe(float64(res.Runs))
	searchRunsTotal.of(codec.Name()).Add(int64(res.Runs))
	searchRunsTotal.n.Add(int64(res.Runs))
	if res.Converged {
		searchConverged.Inc()
	} else {
		searchDiverged.Inc()
	}
	ratioMiss.of(codec.Name()).Observe(math.Abs(res.Achieved/targetRatio - 1))
	ratioMiss.n.Add(1)
	if opts.Surrogate != nil {
		surrogateEvals.Observe(float64(res.SurrogateEvals))
		if res.SurrogateDropped {
			surrogateDropped.Inc()
		}
	}
	return res, nil
}

// point is a probe in the search's coordinates.
type point struct {
	rel float64 // value-range-relative bound
	x   float64 // ln rel
	y   float64 // ln(ratio/target): negative below the target
	w   float64 // y as regula falsi weighs it: halved by the Illinois rule
}

// bracket is the state of one root-find on (ln eb, ln ratio/target): the
// nearest point below and above the target, and the previous point. The
// real probes drive one; each surrogate solve drives a copy of it.
type bracket struct {
	lo, hi, prev                        point
	haveLo, haveHi, havePrev, lastBelow bool
}

// closed reports a bracket narrower than minBracket.
func (b *bracket) closed() bool { return b.haveLo && b.haveHi && b.hi.x-b.lo.x < minBracket }

// step takes in the ratio found at rel, as a fraction of the target, and
// returns the bound to try next. ok is false when there is none: rel is an
// endpoint on the near side of the target (out of reach), or the bracket
// has closed around a jump. Ratio is taken as non-decreasing in the bound;
// where a codec is locally not, the bracket still shrinks on every step.
func (b *bracket) step(rel, overTarget float64) (next float64, ok bool) {
	y := math.Log(overTarget)
	p := point{rel, math.Log(rel), y, y}
	below := p.y < 0
	if below && rel >= relHi || !below && rel <= relLo {
		return rel, false
	}
	// Illinois: an end that survives two steps in a row has its weight
	// halved, so regula falsi cannot creep along a convex curve.
	if below {
		if b.haveHi && b.lastBelow {
			b.hi.w /= 2
		}
		b.lo, b.haveLo = p, true
	} else {
		if b.haveLo && !b.lastBelow {
			b.lo.w /= 2
		}
		b.hi, b.haveHi = p, true
	}
	b.lastBelow = below

	var x float64
	if b.haveLo && b.haveHi {
		if b.closed() {
			return rel, false
		}
		x = (b.lo.x*b.hi.w - b.hi.x*b.lo.w) / (b.hi.w - b.lo.w)
	} else {
		// No bracket yet: follow the secant of the last two points; where
		// they show no rise (a flat stair, a local dip) double the stride.
		x = p.x - p.y/defaultSlope
		if b.havePrev {
			if s := (p.y - b.prev.y) / (p.x - b.prev.x); s > 0 {
				x = p.x - p.y/s
			} else {
				x = p.x + 2*(p.x-b.prev.x)
			}
		}
	}
	b.prev, b.havePrev = p, true
	// Clamping in rel keeps the endpoints (and a seed) exact.
	return math.Min(math.Max(math.Exp(x), relLo), relHi), true
}

// surrogate is Options.Surrogate with the search's correction of it: bias
// is achieved/estimated at the latest real probe — package calib's
// correction with one point, fitted on the request's own field — and 1
// before there is one. ratio is nil without a surrogate or once dropped.
type surrogate struct {
	ratio               func(eb float64) (float64, error)
	target, scale, bias float64
	res                 *Result
}

func (s *surrogate) drop() { s.ratio, s.res.SurrogateDropped = nil, true }

// estimate is the raw surrogate at rel; ok is false when it has no usable
// answer: an error, no ratio at all, or the evaluation budget is spent.
func (s *surrogate) estimate(rel float64) (est float64, ok bool) {
	if s.res.SurrogateEvals >= maxSurrogateEvals {
		return 0, false
	}
	start := time.Now()
	est, err := s.ratio(rel * s.scale)
	s.res.SurrogateEvals++
	s.res.SurrogateTime += time.Since(start)
	return est, err == nil && est > 0 && !math.IsInf(est, 1)
}

// anchor refits bias at a real probe; false when the surrogate cannot be.
func (s *surrogate) anchor(p Probe) bool {
	est, ok := s.estimate(p.RelEB)
	s.bias = p.Ratio / est
	return ok && s.bias > 0
}

// solve root-finds on bias × surrogate from rel with the real probes' own
// step, on a copy of their bracket (so strictly inside it), and returns the
// bound worth a compression with its predicted miss |bias × estimate /
// target − 1|: where that is within surrogateTolerance or, where the
// surrogate's curve jumps over the band (ZFP's staircase), a side of the
// jump. ok is false when it has none: the surrogate failed or puts the
// target out of reach.
func (s *surrogate) solve(real bracket, rel float64) (at, miss float64, ok bool) {
	for b := real; ; {
		est, ok := s.estimate(rel)
		if !ok {
			return 0, 0, false
		}
		over := s.bias * est / s.target
		if d := math.Abs(over - 1); d <= surrogateTolerance {
			return rel, d, true
		}
		if rel, ok = b.step(rel, over); ok {
			continue
		}
		if !b.closed() {
			return 0, 0, false
		}
		// The sides of a jump are worth one compression each, smaller
		// predicted miss first — unless a real probe within minBracket of the
		// jump already stands for that side; then the other one closes the
		// real bracket and ends the search.
		loOpen := !real.haveLo || b.hi.x-real.lo.x >= minBracket
		hiOpen := !real.haveHi || real.hi.x-b.lo.x >= minBracket
		switch {
		case loOpen && (!hiOpen || math.Abs(b.lo.y) <= math.Abs(b.hi.y)):
			return b.lo.rel, math.Abs(math.Expm1(b.lo.y)), true
		case hiOpen:
			return b.hi.rel, math.Abs(math.Expm1(b.hi.y)), true
		default:
			return 0, 0, false
		}
	}
}

// search is the uninstrumented loop: real probes drive a bracket, and while
// a surrogate is in play every bound they would try is first moved to where
// the surrogate puts the target — also after a probe inside the band, which
// the surrogate, anchored on it, may still take closer.
func search(codec compressor.Codec, f *field.Field, targetRatio float64, opts Options) (Result, error) {
	if !(targetRatio > 0) {
		return Result{}, fmt.Errorf("fraz: invalid target ratio %g", targetRatio)
	}
	if f == nil || f.Len() == 0 {
		return Result{}, errors.New("fraz: empty field")
	}
	runs := cmp.Or(max(opts.MaxRuns, 0), maxRuns)
	res := Result{Seeded: opts.Seed > 0 && !math.IsInf(opts.Seed, 1)}
	rel := math.Sqrt(relLo * relHi)
	if res.Seeded {
		rel = opts.Seed
		if runs > 1 {
			rel = math.Min(math.Max(rel, relLo), relHi)
		}
	}
	// compressor.AbsBound's rule, with its pass over the field taken once.
	// An infinite sample makes the range non-finite, and no bound of it a
	// bound: the field is refused before any probe.
	scale := f.ValueRange()
	if math.IsInf(scale, 0) || math.IsNaN(scale) {
		return res, fmt.Errorf("fraz: value range %g: %w", scale, compressor.ErrNonFinite)
	}
	if scale <= 0 {
		scale = 1
	}
	sur := surrogate{opts.Surrogate, targetRatio, scale, 1, &res}

	var b bracket
	bestMiss, lastMiss := math.Inf(1), math.Inf(1)
	for res.Runs < runs {
		if sur.ratio != nil {
			at, predicted, ok := sur.solve(b, rel)
			switch {
			case !ok:
				sur.drop()
			case predicted >= bestMiss:
				// Anchored on the last probe, the surrogate prices its proposal
				// no closer than a probe already made: a refinement in the band
				// that would not refine, or (outside it, where only a side of a
				// jump is predicted this far off) a side of which, since the
				// ratio rises with the bound, nothing is closer either. Its
				// compression cannot change the answer.
				if !res.Converged {
					jumpSkips.Inc()
				}
				return res, nil
			default:
				rel = at
			}
		}
		if res.Converged {
			refineRuns.Inc()
		}
		probeStart := time.Now()
		stream, err := codec.Compress(f, rel*scale)
		probeSeconds.ObserveSince(probeStart)
		if err != nil {
			return res, fmt.Errorf("fraz: probe at rel=%g: %w", rel, err)
		}
		ratio := compressor.Ratio(f, stream)
		res.Runs++
		res.Probes = append(res.Probes, Probe{RelEB: rel, Ratio: ratio})
		miss := math.Abs(ratio/targetRatio - 1)
		if miss < bestMiss {
			bestMiss = miss
			res.RelEB, res.Stream, res.Achieved = rel, stream, ratio
		}
		res.Converged = bestMiss <= tolerance
		// In the band the search ends unless its surrogate may still take it
		// closer: this probe missed by more than the surrogate's tolerance and
		// came closer than the probe before it.
		if res.Converged && (sur.ratio == nil || miss <= surrogateTolerance || miss >= lastMiss) {
			return res, nil
		}
		next, ok := b.step(rel, ratio/targetRatio)
		if !ok {
			return res, nil
		}
		// A surrogate whose proposal missed the band without even coming
		// closer than the probe before it is dropped; else it is re-anchored.
		if sur.ratio != nil && (miss >= lastMiss || !sur.anchor(res.Probes[res.Runs-1])) {
			sur.drop()
			if res.Converged {
				return res, nil
			}
		}
		lastMiss, rel = miss, next
	}
	return res, nil
}
