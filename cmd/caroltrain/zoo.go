package main

import (
	"fmt"
	"io"
	"strconv"

	"carol/internal/boost"
	"carol/internal/core"
	"carol/internal/model"
	"carol/internal/rf"
	"carol/internal/xrand"
)

// The backend zoo: with -backends other than "rf" alone, every listed
// surrogate-model backend (random forest, gradient boosting) is trained on
// the one collected training set and scored on the same deterministic
// k-fold split, so the comparison is fair, and the lowest cross-validated
// MSE is published. The black-box prediction literature (PAPERS.md) shows
// different statistical predictors win on different datasets; the zoo
// publishes whichever wins on the data at hand (DESIGN.md §17).

// candidate is one trained backend with its cross-validation score.
type candidate struct {
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

// artifact wraps the candidate's model into a publishable artifact with
// the canonical schema.
func (c *candidate) artifact(codec string, meta map[string]string) (*model.Artifact, error) {
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

// zoo holds every candidate, in -backends order.
type zoo []candidate

// best returns the winning candidate: lowest CVMSE among the backends
// that trained successfully, ties broken by -backends order (the earlier
// backend wins — strict improvement is required to displace it). Nil when
// every backend failed.
func (z zoo) best() *candidate {
	var best *candidate
	for i := range z {
		c := &z[i]
		if c.Err != nil {
			continue
		}
		if best == nil || c.CVMSE < best.CVMSE {
			best = c
		}
	}
	return best
}

// scoreboard renders the per-backend CV scores (and the winner) as
// metadata pairs for artifact provenance. Failed backends record their
// error string instead of a score.
func (z zoo) scoreboard() map[string]string {
	out := make(map[string]string, len(z)+1)
	for i := range z {
		c := &z[i]
		if c.Err != nil {
			out["zoo_err_"+c.Backend] = c.Err.Error()
			continue
		}
		out["zoo_cv_mse_"+c.Backend] = strconv.FormatFloat(c.CVMSE, 'g', -1, 64)
	}
	if best := z.best(); best != nil {
		out["zoo_best_backend"] = best.Backend
	}
	return out
}

// runZoo cross-validates each of o.backends on the SAME deterministic
// o.kfolds-fold split (seeded permutation, sample i in fold perm⁻¹(i) mod
// k) and then refits it on the full data, every fit with fc's
// hyper-parameters on o.workers. A backend that fails is recorded on its
// candidate, not fatal; runZoo errors only when the data cannot support
// CV at all. parseFlags has already checked the backend list.
func runZoo(X [][]float64, y []float64, o options, fc model.FitConfig) (zoo, error) {
	k := o.kfolds
	if len(X) < 2*k {
		return nil, fmt.Errorf("zoo: %d samples cannot support %d-fold CV", len(X), k)
	}
	fc.Workers = o.workers
	// -seed 0 folds as seed 1, the seed core and boost also take for 0.
	perm := xrand.New(max(o.seed, 1)).Perm(len(X))
	foldOf := make([]int, len(X))
	for i, p := range perm {
		foldOf[p] = i % k
	}
	z := make(zoo, len(o.backends))
	for bi, backend := range o.backends {
		c := &z[bi]
		c.Backend = backend
		if c.CVMSE, c.Err = crossValidate(X, y, foldOf, k, backend, fc); c.Err != nil {
			continue
		}
		c.Model, c.Err = model.Fit(backend, X, y, fc)
	}
	return z, nil
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

// trainZoo runs the zoo on the framework's collected training set (the rf
// entrant with the BO-tuned config, capped at -forest-cap) and returns the
// winner's artifact with the CV scoreboard recorded in its metadata.
func trainZoo(out io.Writer, fw *core.Framework, o options, rfCfg rf.Config,
	meta map[string]string) (*model.Artifact, error) {
	if o.forestCap > 0 && rfCfg.NEstimators > o.forestCap {
		rfCfg.NEstimators = o.forestCap
	}
	X, y := fw.TrainingSet().Matrix()
	z, err := runZoo(X, y, o, model.FitConfig{RF: rfCfg, Boost: boost.Config{Seed: o.seed}})
	if err != nil {
		return nil, err
	}
	for i := range z {
		c := &z[i]
		if c.Err != nil {
			fmt.Fprintf(out, "caroltrain: zoo: %s failed: %v\n", c.Backend, c.Err)
			continue
		}
		fmt.Fprintf(out, "caroltrain: zoo: %s cv mse %.6g\n", c.Backend, c.CVMSE)
	}
	winner := z.best()
	if winner == nil {
		return nil, fmt.Errorf("zoo: every backend failed")
	}
	fmt.Fprintf(out, "caroltrain: zoo: winner %s\n", winner.Backend)
	for k, v := range z.scoreboard() {
		meta[k] = v
	}
	return winner.artifact(o.codec, meta)
}
