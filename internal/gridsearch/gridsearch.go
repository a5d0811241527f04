// Package gridsearch holds both random-forest hyper-parameter searches of
// §5.3 of the CAROL paper, each scored with k-fold cross-validation: FXRZ's
// randomized grid search (Search) and CAROL's Bayesian-optimization loop
// (Bayes). It also defines the shared search space and the
// vector<->rf.Config mapping the Bayesian optimizer (package bayesopt)
// searches over.
package gridsearch

import (
	"errors"
	"fmt"

	"carol/internal/bayesopt"
	"carol/internal/rf"
	"carol/internal/xrand"
)

// Grid is the discrete FXRZ hyper-parameter grid (§5.3: n_estimators
// [90:1200], max_features {auto,sqrt}, max_depth [10:110],
// min_samples_split {2,5,10}, min_samples_leaf {1,2,4}, bootstrap {t,f}).
var Grid = struct {
	NEstimatorsMin, NEstimatorsMax, NEstimatorsStep int
	MaxDepthMin, MaxDepthMax, MaxDepthStep          int
	MinSamplesSplit                                 []int
	MinSamplesLeaf                                  []int
}{
	NEstimatorsMin: 90, NEstimatorsMax: 1200, NEstimatorsStep: 10,
	MaxDepthMin: 10, MaxDepthMax: 110, MaxDepthStep: 10,
	MinSamplesSplit: []int{2, 5, 10},
	MinSamplesLeaf:  []int{1, 2, 4},
}

// RandomConfig draws one configuration uniformly from the grid.
func RandomConfig(rng *xrand.Source) rf.Config {
	nEstChoices := (Grid.NEstimatorsMax-Grid.NEstimatorsMin)/Grid.NEstimatorsStep + 1
	depthChoices := (Grid.MaxDepthMax-Grid.MaxDepthMin)/Grid.MaxDepthStep + 1
	cfg := rf.Config{
		NEstimators:     Grid.NEstimatorsMin + rng.Intn(nEstChoices)*Grid.NEstimatorsStep,
		MaxDepth:        Grid.MaxDepthMin + rng.Intn(depthChoices)*Grid.MaxDepthStep,
		MinSamplesSplit: Grid.MinSamplesSplit[rng.Intn(len(Grid.MinSamplesSplit))],
		MinSamplesLeaf:  Grid.MinSamplesLeaf[rng.Intn(len(Grid.MinSamplesLeaf))],
		Bootstrap:       rng.Intn(2) == 1,
		Seed:            rng.Uint64(),
	}
	if rng.Intn(2) == 1 {
		cfg.MaxFeatures = rf.MaxFeaturesSqrt
	}
	return cfg
}

// Result is the outcome of a search.
type Result struct {
	Config    rf.Config
	Score     float64 // mean negative MSE across folds
	Evaluated int     // configurations scored
	// Trajectory lists the configurations Bayes evaluated, in order and
	// uncapped, and Resumed whether opt held observations before them;
	// Search leaves both zero.
	Trajectory []rf.Config
	Resumed    bool
}

// Search runs FXRZ's randomized grid search: sample nConfigs random grid
// points, score each with k-fold cross-validation, return the best. This is
// deliberately the naive strategy the paper criticizes — every invocation
// starts from scratch.
//
// forestCap, when positive, clamps NEstimators during evaluation so that
// scaled-down experiments stay tractable; pass 0 for the paper-faithful
// uncapped search.
//
// workers bounds the CPU parallelism of each evaluation (tree growth and
// CV folds): 0 uses every core, 1 forces the serial engine. The search
// outcome is bit-identical for every value.
func Search(X [][]float64, y []float64, nConfigs, k int, seed uint64, forestCap, workers int) (Result, error) {
	if nConfigs < 1 {
		return Result{}, errors.New("gridsearch: need at least one configuration")
	}
	rng := xrand.New(seed)
	best := Result{Score: negInf}
	for i := 0; i < nConfigs; i++ {
		cfg := RandomConfig(rng)
		cfg.Workers = workers
		if forestCap > 0 && cfg.NEstimators > forestCap {
			cfg.NEstimators = forestCap
		}
		score, err := rf.CrossValidate(X, y, cfg, k, seed+uint64(i))
		if err != nil {
			return Result{}, fmt.Errorf("gridsearch: config %d: %w", i, err)
		}
		if score > best.Score {
			best.Config = cfg
			best.Score = score
		}
		best.Evaluated++
	}
	return best, nil
}

const negInf = -1e308

// Bayes runs iters more evaluations of CAROL's checkpointable Bayesian
// optimizer opt (over BOSpace): evaluation i scores opt's suggestion by
// k-fold cross-validation with seed+i and observes it. The result's Config
// and Score are opt's incumbent over every observation it holds, restored
// ones included, with NEstimators uncapped. forestCap and workers are as
// for Search.
func Bayes(opt *bayesopt.Optimizer, X [][]float64, y []float64, iters, k int, seed uint64, forestCap, workers int) (Result, error) {
	res := Result{Resumed: len(opt.Observations()) > 0}
	for i := 0; i < iters; i++ {
		values := opt.Suggest()
		cfg, err := ConfigFromValues(values, seed)
		if err != nil {
			return res, err
		}
		evalCfg := cfg
		evalCfg.Workers = workers
		if forestCap > 0 && evalCfg.NEstimators > forestCap {
			evalCfg.NEstimators = forestCap
		}
		score, err := rf.CrossValidate(X, y, evalCfg, k, seed+uint64(i))
		if err != nil {
			return res, fmt.Errorf("gridsearch: BO iteration %d: %w", i, err)
		}
		if err := opt.Observe(values, score); err != nil {
			return res, err
		}
		res.Trajectory = append(res.Trajectory, cfg)
		res.Evaluated++
	}
	values, score, ok := opt.Best()
	if !ok {
		return res, errors.New("gridsearch: optimizer has no observations")
	}
	cfg, err := ConfigFromValues(values, seed)
	res.Config, res.Score = cfg, score
	return res, err
}

// BOSpace returns the same hyper-parameter space as a bayesopt search
// space, in the canonical order used by ConfigFromValues.
func BOSpace() bayesopt.Space {
	return bayesopt.Space{
		{Name: "n_estimators", Min: float64(Grid.NEstimatorsMin), Max: float64(Grid.NEstimatorsMax), Integer: true},
		{Name: "max_features", Choices: []float64{0, 1}},
		{Name: "max_depth", Min: float64(Grid.MaxDepthMin), Max: float64(Grid.MaxDepthMax), Integer: true},
		{Name: "min_samples_split", Choices: []float64{2, 5, 10}},
		{Name: "min_samples_leaf", Choices: []float64{1, 2, 4}},
		{Name: "bootstrap", Choices: []float64{0, 1}},
	}
}

// ConfigFromValues converts a BOSpace value vector into an rf.Config.
func ConfigFromValues(v []float64, seed uint64) (rf.Config, error) {
	if len(v) != 6 {
		return rf.Config{}, fmt.Errorf("gridsearch: value vector has %d entries, want 6", len(v))
	}
	cfg := rf.Config{
		NEstimators:     int(v[0]),
		MaxDepth:        int(v[2]),
		MinSamplesSplit: int(v[3]),
		MinSamplesLeaf:  int(v[4]),
		Bootstrap:       v[5] != 0, //carol:allow floateq decodes a 0/1 flag stored in a float vector
		Seed:            seed,
	}
	if v[1] != 0 { //carol:allow floateq decodes a 0/1 flag stored in a float vector
		cfg.MaxFeatures = rf.MaxFeaturesSqrt
	}
	return cfg, nil
}

// ValuesFromConfig is the inverse of ConfigFromValues (used when seeding a
// BO run from a known-good configuration).
func ValuesFromConfig(cfg rf.Config) []float64 {
	v := []float64{
		float64(cfg.NEstimators), 0, float64(cfg.MaxDepth),
		float64(cfg.MinSamplesSplit), float64(cfg.MinSamplesLeaf), 0,
	}
	if cfg.MaxFeatures == rf.MaxFeaturesSqrt {
		v[1] = 1
	}
	if cfg.Bootstrap {
		v[5] = 1
	}
	return v
}
