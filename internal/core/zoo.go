package core

import (
	"fmt"

	"carol/internal/xrand"
)

// The backend zoo (DESIGN.md §17): the winning predictor varies by
// dataset (the black-box prediction literature, PAPERS.md), so with two or
// more backends listed Train fits whichever cross-validates best here.

// Candidate is one listed backend's cross-validation outcome: its mean
// squared error on the shared folds (lower wins), or the error that kept
// it from training or scoring, in which case it never wins.
type Candidate struct {
	Backend string
	CVMSE   float64
	Err     error
}

// zoo cross-validates each tag on one shared Config.KFolds split: a
// permutation seeded with Config.Seed puts sample i in fold perm⁻¹(i) mod
// k. Every fit takes fitAs's hyper-parameters. A backend that fails is
// recorded on its candidate, not fatal; zoo errors only when the data
// cannot support the folds.
func (fw *Framework) zoo(X [][]float64, y []float64, tags []string) ([]Candidate, error) {
	k := fw.cfg.KFolds
	if len(X) < 2*k {
		return nil, fmt.Errorf("core: %d samples cannot support %d-fold CV", len(X), k)
	}
	perm := xrand.New(fw.cfg.Seed).Perm(len(X))
	foldOf := make([]int, len(X))
	for i, p := range perm {
		foldOf[p] = i % k
	}
	z := make([]Candidate, len(tags))
	for i, tag := range tags {
		z[i].Backend = tag
		z[i].CVMSE, z[i].Err = fw.crossValidate(X, y, foldOf, tag)
	}
	return z, nil
}

// crossValidate scores one backend over the shared folds: total squared
// error over every held-out sample divided by n. Folds run in order, so
// the accumulation order — and the score — never depends on scheduling.
func (fw *Framework) crossValidate(X [][]float64, y []float64, foldOf []int, tag string) (float64, error) {
	var sse float64
	for fold := 0; fold < fw.cfg.KFolds; fold++ {
		var trX, teX [][]float64
		var trY, teY []float64
		for i := range X {
			if foldOf[i] == fold {
				teX, teY = append(teX, X[i]), append(teY, y[i])
			} else {
				trX, trY = append(trX, X[i]), append(trY, y[i])
			}
		}
		m, err := fw.fitAs(tag, trX, trY)
		if err != nil {
			return 0, fmt.Errorf("fold %d: %w", fold, err)
		}
		preds, err := m.PredictBatch(teX)
		if err != nil {
			return 0, fmt.Errorf("fold %d predict: %w", fold, err)
		}
		for i, p := range preds {
			d := p - teY[i]
			sse += d * d
		}
	}
	return sse / float64(len(X)), nil
}

// winner returns the index of the lowest CVMSE among the candidates that
// trained, ties going to the earlier one (a later one must improve
// strictly), or -1 when every candidate failed.
func winner(z []Candidate) int {
	best := -1
	for i, c := range z {
		if c.Err == nil && (best < 0 || c.CVMSE < z[best].CVMSE) {
			best = i
		}
	}
	return best
}
