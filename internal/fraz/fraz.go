// Package fraz implements the generic trial-and-error fixed-ratio strategy
// of FRaZ (Underwood et al., IPDPS 2020 — reference [24] of the CAROL
// paper): repeatedly run the real compressor, root-finding on the error
// bound until the achieved compression ratio lands within a tolerance of
// the target. It needs no training at all, but costs one full compression
// per probe — the trade-off CAROL's §3.2 uses to motivate learned
// prediction. A caller that has such a prediction hands it in as
// Options.Seed and the search becomes a cheap correction on top of it.
package fraz

import (
	"errors"
	"fmt"
	"math"
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
	// maxRuns caps the compressor runs of one search.
	maxRuns = 16
	// minBracket is the log-eb width (~2 % in eb) below which a bracket
	// whose two ends both miss the band holds a jump of the codec's ratio
	// curve (ZFP's accuracy staircase), not a root: the search stops.
	minBracket = 0.02
	// defaultSlope is d ln(ratio) / d ln(eb) assumed before two probes
	// give a secant; error-bounded codecs sit between 0.3 and 0.8.
	defaultSlope = 0.5
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
	searchRunsTotal = obs.Default.Counter("fraz_search_compressor_runs_total")
	searchConverged = obs.Default.Counter("fraz_search_converged_total")
	searchDiverged  = obs.Default.Counter("fraz_search_unconverged_total")
	searchErrors    = obs.Default.Counter("fraz_search_errors_total")
	probeSeconds    = obs.Default.Histogram("fraz_probe_seconds", obs.LatencyBuckets())
	// ratioMiss is |achieved/target - 1| of every finished search; the
	// buckets straddle the acceptance band.
	ratioMiss = obs.Default.Histogram("fraz_ratio_miss",
		[]float64{0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.25, 0.5, 1})
)

// The two values of the resolver label and of carolserve's
// X-Carol-Resolver header.
const (
	ResolverSearch = "search"
	ResolverModel  = "model"
)

// Options carries the search's one input besides the target.
type Options struct {
	// Seed is a predicted value-range-relative error bound to start from
	// (a trained model's answer for this field and target). Zero, negative
	// and non-finite seeds are ignored and the search starts from the
	// geometric middle of the interval; a seed outside it is clamped.
	Seed float64
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
	searchRunsTotal.Add(int64(res.Runs))
	if res.Converged {
		searchConverged.Inc()
	} else {
		searchDiverged.Inc()
	}
	ratioMiss.Observe(math.Abs(res.Achieved/targetRatio - 1))
	return res, nil
}

// point is a probe in the search's coordinates.
type point struct {
	x float64 // ln rel-eb
	y float64 // ln(achieved/target): negative below the target
}

// search is the uninstrumented loop. Ratio is taken as non-decreasing in
// the bound; where a codec is locally not, the bracket still shrinks on
// every step and the run cap bounds the rest.
func search(codec compressor.Codec, f *field.Field, targetRatio float64, opts Options) (Result, error) {
	if !(targetRatio > 0) {
		return Result{}, fmt.Errorf("fraz: invalid target ratio %g", targetRatio)
	}
	if f == nil || f.Len() == 0 {
		return Result{}, errors.New("fraz: empty field")
	}
	res := Result{Seeded: opts.Seed > 0 && !math.IsInf(opts.Seed, 1)}
	rel := math.Sqrt(relLo * relHi)
	if res.Seeded {
		rel = math.Min(math.Max(opts.Seed, relLo), relHi)
	}

	var lo, hi, prev point // nearest probe below / above the target; previous probe
	var haveLo, haveHi, lastBelow bool
	bestMiss := math.Inf(1)
	for res.Runs < maxRuns {
		probeStart := time.Now()
		stream, err := codec.Compress(f, compressor.AbsBound(f, rel))
		probeSeconds.ObserveSince(probeStart)
		if err != nil {
			return res, fmt.Errorf("fraz: probe at rel=%g: %w", rel, err)
		}
		ratio := compressor.Ratio(f, stream)
		res.Runs++
		res.Probes = append(res.Probes, Probe{RelEB: rel, Ratio: ratio})
		if miss := math.Abs(ratio/targetRatio - 1); miss < bestMiss {
			bestMiss = miss
			res.RelEB, res.Stream, res.Achieved = rel, stream, ratio
		}
		if bestMiss <= tolerance {
			res.Converged = true
			return res, nil
		}

		p := point{math.Log(rel), math.Log(ratio / targetRatio)}
		below := p.y < 0
		// An endpoint on the near side of the target: out of reach.
		if below && rel >= relHi || !below && rel <= relLo {
			return res, nil
		}
		// Illinois: an end that survives two steps in a row has its weight
		// halved, so regula falsi cannot creep along a convex curve.
		if below {
			if haveHi && lastBelow {
				hi.y /= 2
			}
			lo, haveLo = p, true
		} else {
			if haveLo && !lastBelow {
				lo.y /= 2
			}
			hi, haveHi = p, true
		}
		lastBelow = below

		var x float64
		if haveLo && haveHi {
			if hi.x-lo.x < minBracket {
				return res, nil
			}
			x = (lo.x*hi.y - hi.x*lo.y) / (hi.y - lo.y)
		} else {
			// No bracket yet: follow the secant of the last two probes; where
			// they show no rise (a flat stair, a local dip) double the stride.
			x = p.x - p.y/defaultSlope
			if res.Runs > 1 {
				if s := (p.y - prev.y) / (p.x - prev.x); s > 0 {
					x = p.x - p.y/s
				} else {
					x = p.x + 2*(p.x-prev.x)
				}
			}
		}
		prev = p
		// Clamping in rel keeps the endpoints (and a seed) exact.
		rel = math.Min(math.Max(math.Exp(x), relLo), relHi)
	}
	return res, nil
}
