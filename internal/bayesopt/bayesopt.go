// Package bayesopt implements the Bayesian hyper-parameter optimizer CAROL
// uses in place of FXRZ's randomized grid search (core contribution 3,
// §5.3 of the paper): a Gaussian-process surrogate over the normalized
// hyper-parameter space with an expected-improvement acquisition function.
//
// The optimizer's observation list doubles as its checkpoint: serializing
// it and restoring it into a fresh Optimizer resumes the search exactly
// where it stopped, which is what makes CAROL's incremental model
// refinement cheap.
package bayesopt

import (
	"errors"
	"fmt"
	"math"

	"carol/internal/pipeline"
	"carol/internal/xrand"
)

// Param describes one dimension of the search space.
type Param struct {
	Name    string
	Min     float64
	Max     float64
	Integer bool      // round denormalized values
	Choices []float64 // non-empty: snap to the nearest listed value
}

// Space is an ordered list of parameters.
type Space []Param

// Denormalize maps u in [0,1]^d to concrete parameter values.
func (s Space) Denormalize(u []float64) []float64 {
	v := make([]float64, len(s))
	for i, p := range s {
		x := clamp01(u[i])
		if len(p.Choices) > 0 {
			// Partition [0,1] evenly across choices.
			idx := int(x * float64(len(p.Choices)))
			if idx >= len(p.Choices) {
				idx = len(p.Choices) - 1
			}
			v[i] = p.Choices[idx]
			continue
		}
		val := p.Min + x*(p.Max-p.Min)
		if p.Integer {
			val = math.Round(val)
		}
		v[i] = val
	}
	return v
}

// Normalize maps concrete values back into [0,1]^d.
func (s Space) Normalize(v []float64) []float64 {
	u := make([]float64, len(s))
	for i, p := range s {
		if len(p.Choices) > 0 {
			best, bestD := 0, math.Inf(1)
			for ci, c := range p.Choices {
				if d := math.Abs(c - v[i]); d < bestD {
					best, bestD = ci, d
				}
			}
			u[i] = (float64(best) + 0.5) / float64(len(p.Choices))
			continue
		}
		if p.Max == p.Min { //carol:allow floateq degenerate range configured as two identical literals
			u[i] = 0
			continue
		}
		u[i] = clamp01((v[i] - p.Min) / (p.Max - p.Min))
	}
	return u
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Observation is one evaluated configuration (normalized coordinates).
type Observation struct {
	U     []float64
	Score float64
}

// Optimizer runs GP-based expected-improvement search. Create with New.
type Optimizer struct {
	space Space
	obs   []Observation
	rng   *xrand.Source

	// Xi is the exploration margin in the EI acquisition. Larger values
	// explore more. Default 0.01.
	Xi float64
	// Length is the RBF kernel length scale in normalized units.
	// Default 0.25.
	Length float64
	// AutoLength, when true, selects the length scale per fit by maximum
	// log marginal likelihood over a small candidate grid around Length.
	AutoLength bool
	// Noise is the diagonal jitter added to the kernel. Default 1e-6.
	Noise float64
	// NInit is the number of purely random suggestions before the GP model
	// takes over. Default 5.
	NInit int
	// Candidates is the number of random acquisition candidates per
	// Suggest. Default 256.
	Candidates int
	// Workers bounds the goroutines scoring acquisition candidates on
	// pipeline.FanOut: 0 uses every core, 1 scores them in the caller's
	// goroutine. Suggestions are bit-identical for every value — candidates
	// are generated from the single RNG stream serially and only their
	// (read-only) GP scoring is parallel.
	Workers int
}

// New returns an optimizer over space with a deterministic seed.
func New(space Space, seed uint64) *Optimizer {
	return &Optimizer{
		space:      space,
		rng:        xrand.New(seed),
		Xi:         0.01,
		Length:     0.25,
		Noise:      1e-6,
		NInit:      5,
		Candidates: 256,
	}
}

// Space returns the optimizer's search space.
func (o *Optimizer) Space() Space { return o.space }

// Observations returns a copy of the evaluated configurations; this is the
// checkpoint CAROL persists between incremental refinements.
func (o *Optimizer) Observations() []Observation {
	out := make([]Observation, len(o.obs))
	for i, ob := range o.obs {
		out[i] = Observation{U: append([]float64(nil), ob.U...), Score: ob.Score}
	}
	return out
}

// Restore warm-starts the optimizer from a previous run's observations.
func (o *Optimizer) Restore(obs []Observation) error {
	for _, ob := range obs {
		if len(ob.U) != len(o.space) {
			return errors.New("bayesopt: observation dimensionality mismatch")
		}
	}
	o.obs = append(o.obs, obs...)
	return nil
}

// Observe records the score of a configuration (concrete values).
func (o *Optimizer) Observe(values []float64, score float64) error {
	if len(values) != len(o.space) {
		return fmt.Errorf("bayesopt: observe %d values in %d-dim space", len(values), len(o.space))
	}
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return errors.New("bayesopt: non-finite score")
	}
	o.obs = append(o.obs, Observation{U: o.space.Normalize(values), Score: score})
	return nil
}

// Best returns the best configuration observed so far.
func (o *Optimizer) Best() (values []float64, score float64, ok bool) {
	if len(o.obs) == 0 {
		return nil, 0, false
	}
	bi := 0
	for i, ob := range o.obs {
		if ob.Score > o.obs[bi].Score {
			bi = i
		}
	}
	return o.space.Denormalize(o.obs[bi].U), o.obs[bi].Score, true
}

// Suggest proposes the next configuration to evaluate (concrete values).
func (o *Optimizer) Suggest() []float64 {
	if len(o.obs) < o.NInit {
		return o.space.Denormalize(o.randomU())
	}
	u := o.suggestEI()
	return o.space.Denormalize(u)
}

func (o *Optimizer) randomU() []float64 {
	u := make([]float64, len(o.space))
	for i := range u {
		u[i] = o.rng.Float64()
	}
	return u
}

// gpModel is the fitted GP state for one Suggest call.
type gpModel struct {
	l     [][]float64 // Cholesky of K
	alpha []float64   // K^{-1} y_std
	xs    [][]float64
	mean  float64
	std   float64
	noise float64
	len2  float64
}

func (o *Optimizer) fitGP() (*gpModel, error) {
	n := len(o.obs)
	ys := make([]float64, n)
	var mean float64
	for i, ob := range o.obs {
		ys[i] = ob.Score
		mean += ob.Score
	}
	mean /= float64(n)
	var variance float64
	for _, y := range ys {
		variance += (y - mean) * (y - mean)
	}
	std := math.Sqrt(variance / float64(n))
	if std == 0 { //carol:allow floateq exact-zero variance guard before dividing
		std = 1
	}
	for i := range ys {
		ys[i] = (ys[i] - mean) / std
	}
	lengths := []float64{o.Length}
	if o.AutoLength {
		lengths = []float64{o.Length / 2, o.Length, o.Length * 2}
	}
	var best *gpModel
	bestLML := math.Inf(-1)
	for _, length := range lengths {
		m, lml, err := o.fitGPAt(ys, mean, std, length)
		if err != nil {
			continue
		}
		if lml > bestLML {
			best, bestLML = m, lml
		}
	}
	if best == nil {
		return nil, errors.New("bayesopt: GP fit failed at every length scale")
	}
	return best, nil
}

// fitGPAt fits the GP at one length scale and returns the model and its
// log marginal likelihood (up to a constant).
func (o *Optimizer) fitGPAt(ys []float64, mean, std, length float64) (*gpModel, float64, error) {
	n := len(o.obs)
	len2 := length * length
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := kernelRBF(o.obs[i].U, o.obs[j].U, len2)
			k[i][j] = v
			k[j][i] = v
		}
		k[i][i] += o.Noise + 1e-10
	}
	l, err := cholesky(k)
	if err != nil {
		// Numerical trouble (e.g. duplicated points): add jitter and retry.
		for i := range k {
			k[i][i] += 1e-6
		}
		l, err = cholesky(k)
		if err != nil {
			return nil, 0, err
		}
	}
	alpha := solveChol(l, ys)
	// log p(y) = -0.5 yᵀ K⁻¹ y - Σ log L_ii + const.
	lml := -0.5 * dot(ys, alpha)
	for i := 0; i < n; i++ {
		lml -= math.Log(l[i][i])
	}
	xs := make([][]float64, n)
	for i, ob := range o.obs {
		xs[i] = ob.U
	}
	return &gpModel{
		l: l, alpha: alpha, xs: xs,
		mean: mean, std: std, noise: o.Noise, len2: len2,
	}, lml, nil
}

// predict returns the GP posterior mean and stddev (standardized units).
func (m *gpModel) predict(u []float64) (mu, sigma float64) {
	n := len(m.xs)
	kstar := make([]float64, n)
	for i := range kstar {
		kstar[i] = kernelRBF(u, m.xs[i], m.len2)
	}
	mu = dot(kstar, m.alpha)
	v := forwardSolve(m.l, kstar)
	s2 := 1 + m.noise - dot(v, v)
	if s2 < 1e-12 {
		s2 = 1e-12
	}
	return mu, math.Sqrt(s2)
}

func kernelRBF(a, b []float64, len2 float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-d2 / (2 * len2))
}

// suggestEI maximizes expected improvement over random candidates plus
// local perturbations of the incumbent ("exploration" + "exploitation").
func (o *Optimizer) suggestEI() []float64 {
	model, err := o.fitGP()
	if err != nil {
		return o.randomU()
	}
	// Standardized incumbent.
	best := math.Inf(-1)
	var bestU []float64
	for _, ob := range o.obs {
		if ob.Score > best {
			best = ob.Score
			bestU = ob.U
		}
	}
	bestStd := (best - model.mean) / model.std

	// Generate every candidate first (exploration, then exploitation:
	// incumbent perturbations at shrinking radii) so the RNG stream is
	// consumed serially, then score them in parallel against the fitted GP.
	cands := make([][]float64, 0, o.Candidates+o.Candidates/4)
	for c := 0; c < o.Candidates; c++ {
		cands = append(cands, o.randomU())
	}
	for c := 0; c < o.Candidates/4; c++ {
		u := make([]float64, len(bestU))
		radius := 0.05 + 0.15*o.rng.Float64()
		for i := range u {
			u[i] = clamp01(bestU[i] + radius*o.rng.Norm())
		}
		cands = append(cands, u)
	}
	// Candidates per FanOut item: enough GP solves to amortize the item's
	// goroutine. Scoring cannot fail, so FanOut's error is always nil.
	const chunk = 64
	eis := make([]float64, len(cands))
	_, _ = pipeline.FanOut((len(cands)+chunk-1)/chunk, o.Workers, func(ci int) (struct{}, error) {
		for c := ci * chunk; c < min((ci+1)*chunk, len(cands)); c++ {
			mu, sigma := model.predict(cands[c])
			imp := mu - bestStd - o.Xi
			z := imp / sigma
			eis[c] = imp*normCDF(z) + sigma*normPDF(z)
		}
		return struct{}{}, nil
	})
	// Argmax in generation order — identical to scoring serially.
	bestEI := math.Inf(-1)
	var bestCand []float64
	for c, u := range cands {
		if eis[c] > bestEI {
			bestEI = eis[c]
			bestCand = u
		}
	}
	if bestCand == nil {
		return o.randomU()
	}
	return bestCand
}

func normPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

func normCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}
