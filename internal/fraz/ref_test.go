package fraz

import (
	"math"

	"carol/internal/compressor"
	"carol/internal/field"
)

// refSearch is the search loop as it stood before the bracket step became a
// type shared with the surrogate solve and the value range was hoisted:
// compressor.AbsBound per probe, the bracket in local variables. Kept
// verbatim as the oracle a surrogate-less Search is compared against,
// probe for probe.
func refSearch(codec compressor.Codec, f *field.Field, targetRatio float64, opts Options) (Result, error) {
	type point struct{ x, y float64 }
	res := Result{Seeded: opts.Seed > 0 && !math.IsInf(opts.Seed, 1)}
	rel := math.Sqrt(relLo * relHi)
	if res.Seeded {
		rel = math.Min(math.Max(opts.Seed, relLo), relHi)
	}

	var lo, hi, prev point
	var haveLo, haveHi, lastBelow bool
	bestMiss := math.Inf(1)
	for res.Runs < maxRuns {
		stream, err := codec.Compress(f, compressor.AbsBound(f, rel))
		if err != nil {
			return res, err
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
		if below && rel >= relHi || !below && rel <= relLo {
			return res, nil
		}
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
		rel = math.Min(math.Max(math.Exp(x), relLo), relHi)
	}
	return res, nil
}
