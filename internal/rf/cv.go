package rf

import (
	"errors"
	"math"
	"time"

	"carol/internal/obs"
	"carol/internal/pipeline"
	"carol/internal/xrand"
)

var cvSeconds = obs.Default.Histogram("rf_crossvalidate_seconds", obs.LatencyBuckets())

// CrossValidate scores a configuration with k-fold cross-validation and
// returns the mean negative MSE across folds (higher is better, 0 is
// perfect). This is the scoring function FXRZ's randomized grid search and
// CAROL's Bayesian optimizer both maximize.
//
// X is ranked once for every fold: a fold trains on a list of X's rows, and
// grows the forest Train grows on those rows copied out in order. Folds run
// on pipeline.FanOut, bounded by Config.Workers; fold scores are summed in
// fold order, so the result is bit-identical for any Workers value.
func CrossValidate(X [][]float64, y []float64, cfg Config, k int, seed uint64) (float64, error) {
	start := time.Now()
	defer cvSeconds.ObserveSince(start)
	if k < 2 {
		return 0, errors.New("rf: k-fold needs k >= 2")
	}
	if len(X) < k {
		return 0, errors.New("rf: fewer samples than folds")
	}
	rk, err := rankMatrix(X)
	if err != nil {
		return 0, err
	}
	if err := checkTargets(y, len(X)); err != nil {
		return 0, err
	}
	perm := xrand.New(seed).Perm(len(X))
	foldOf := make([]int, len(X))
	for i, p := range perm {
		foldOf[p] = i % k
	}
	scores, err := pipeline.FanOut(k, cfg.Workers, func(fold int) (float64, error) {
		nTest := 0
		for i := range X {
			if foldOf[i] == fold {
				nTest++
			}
		}
		rows := make([]int, 0, len(X)-nTest)
		teX := make([][]float64, 0, nTest)
		teY := make([]float64, 0, nTest)
		for i := range X {
			if foldOf[i] == fold {
				teX = append(teX, X[i])
				teY = append(teY, y[i])
			} else {
				rows = append(rows, i)
			}
		}
		f, err := rk.train(rows, y, cfg, (*builder).bestSplit)
		if err != nil {
			return 0, err
		}
		preds, err := f.PredictBatch(teX)
		if err != nil {
			return 0, err
		}
		var mse float64
		for i, p := range preds {
			d := p - teY[i]
			mse += d * d
		}
		if len(preds) > 0 {
			mse /= float64(len(preds))
		}
		return -mse, nil
	})
	if err != nil {
		return 0, err
	}
	var totalScore float64
	for _, fs := range scores {
		totalScore += fs
	}
	score := totalScore / float64(k)
	if math.IsNaN(score) {
		return 0, errors.New("rf: NaN cross-validation score")
	}
	return score, nil
}
