// Package zoo trains and compares every registered surrogate-model
// backend (random forest, gradient boosting) on one training set,
// scoring each with the same deterministic k-fold split so the comparison
// is fair, and picking the winner by cross-validated MSE with a
// deterministic tie-break (backend priority order). The black-box
// prediction literature (PAPERS.md) shows different statistical predictors
// win on different datasets — the zoo turns that observation into
// mechanism: caroltrain -backends trains the zoo and publishes whichever
// backend actually wins on the data at hand (DESIGN.md §17).
package zoo

import (
	"errors"
	"fmt"
	"strconv"

	"carol/internal/boost"
	"carol/internal/model"
	"carol/internal/rf"
	"carol/internal/xrand"
)

// Config tunes one zoo run. Zero values take defaults.
type Config struct {
	// Backends lists the backend tags to train, in priority order (the
	// CV-score tie-break order). Default: model.KnownBackends().
	Backends []string
	// RF configures the random-forest backend. The zero value uses
	// rf.DefaultConfig(); caroltrain passes its BO-tuned incumbent here.
	RF rf.Config
	// Boost configures the gradient-boosting backend (zero = defaults).
	Boost boost.Config
	// KFolds is the cross-validation fold count. Default 5.
	KFolds int
	// Seed drives the fold assignment (shared by every backend).
	Seed uint64
	// Workers bounds intra-backend training parallelism. Folds run
	// serially — determinism comes from fold order, speed from the
	// backends' own Workers contract.
	Workers int
}

func (c Config) withDefaults() Config {
	if len(c.Backends) == 0 {
		c.Backends = model.KnownBackends()
	}
	if c.KFolds <= 0 {
		c.KFolds = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Candidate is one trained backend with its cross-validation score.
type Candidate struct {
	Backend string
	// CVMSE is the k-fold cross-validated mean squared error (lower is
	// better) on the shared fold split.
	CVMSE float64
	// Err is non-nil when this backend failed to train or score; such a
	// candidate carries no model and never wins.
	Err error
	// Model is the backend refit on the full data; nil when Err is set.
	Model model.Regressor
}

// Artifact wraps the candidate's model into a publishable artifact with
// the canonical schema.
func (c *Candidate) Artifact(codec string, meta map[string]string) (*model.Artifact, error) {
	if c.Err != nil {
		return nil, fmt.Errorf("zoo: backend %s failed: %w", c.Backend, c.Err)
	}
	a := &model.Artifact{
		Codec:     codec,
		Backend:   c.Backend,
		Schema:    model.CanonicalSchema(),
		Regressor: c.Model,
		Meta:      meta,
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// Result holds every candidate, in the configured priority order.
type Result struct {
	Candidates []Candidate
}

// Best returns the winning candidate: lowest CVMSE among the backends
// that trained successfully, ties broken by priority order (the earlier
// backend wins — strict improvement is required to displace it). Nil when
// every backend failed.
func (r *Result) Best() *Candidate {
	var best *Candidate
	for i := range r.Candidates {
		c := &r.Candidates[i]
		if c.Err != nil {
			continue
		}
		if best == nil || c.CVMSE < best.CVMSE {
			best = c
		}
	}
	return best
}

// Scoreboard renders the per-backend CV scores (and the winner) as
// metadata pairs for artifact provenance. Failed backends record their
// error string instead of a score.
func (r *Result) Scoreboard() map[string]string {
	out := make(map[string]string, len(r.Candidates)+1)
	for i := range r.Candidates {
		c := &r.Candidates[i]
		if c.Err != nil {
			out["zoo_err_"+c.Backend] = c.Err.Error()
			continue
		}
		out["zoo_cv_mse_"+c.Backend] = strconv.FormatFloat(c.CVMSE, 'g', -1, 64)
	}
	if best := r.Best(); best != nil {
		out["zoo_best_backend"] = best.Backend
	}
	return out
}

// Train runs the zoo: every configured backend is cross-validated on the
// SAME deterministic fold split (seeded permutation, sample i in fold
// perm⁻¹(i) mod k) and then refit on the full data. Backends that fail
// are recorded on their candidate, not fatal — Train errors only when the
// data cannot support CV at all or the backend list fails
// model.CheckBackends (unknown or repeated tag).
func Train(X [][]float64, y []float64, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("zoo: empty or mismatched training data")
	}
	if len(X) < 2*cfg.KFolds {
		return nil, fmt.Errorf("zoo: %d samples cannot support %d-fold CV", len(X), cfg.KFolds)
	}
	if err := model.CheckBackends(cfg.Backends); err != nil {
		return nil, err
	}
	k := cfg.KFolds
	fc := model.FitConfig{RF: cfg.RF, Boost: cfg.Boost, Workers: cfg.Workers}
	perm := xrand.New(cfg.Seed).Perm(len(X))
	foldOf := make([]int, len(X))
	for i, p := range perm {
		foldOf[p] = i % k
	}
	res := &Result{Candidates: make([]Candidate, len(cfg.Backends))}
	for bi, backend := range cfg.Backends {
		c := &res.Candidates[bi]
		c.Backend = backend
		if c.CVMSE, c.Err = crossValidate(X, y, foldOf, k, backend, fc); c.Err != nil {
			continue
		}
		c.Model, c.Err = model.Fit(backend, X, y, fc)
	}
	return res, nil
}

// crossValidate scores one backend over the shared folds: total squared
// error over every held-out sample divided by n. Folds run in order, so
// the accumulation order — and the score — never depends on scheduling.
func crossValidate(X [][]float64, y []float64, foldOf []int, k int, backend string, fc model.FitConfig) (float64, error) {
	var sse float64
	for fold := 0; fold < k; fold++ {
		trX := make([][]float64, 0, len(X))
		trY := make([]float64, 0, len(y))
		teX := make([][]float64, 0, len(X)/k+1)
		teY := make([]float64, 0, len(y)/k+1)
		for i := range X {
			if foldOf[i] == fold {
				teX = append(teX, X[i])
				teY = append(teY, y[i])
			} else {
				trX = append(trX, X[i])
				trY = append(trY, y[i])
			}
		}
		m, err := model.Fit(backend, trX, trY, fc)
		if err != nil {
			return 0, fmt.Errorf("zoo: fold %d: %w", fold, err)
		}
		preds, err := m.PredictBatch(teX)
		if err != nil {
			return 0, fmt.Errorf("zoo: fold %d predict: %w", fold, err)
		}
		for i, p := range preds {
			d := p - teY[i]
			sse += d * d
		}
	}
	return sse / float64(len(X)), nil
}
