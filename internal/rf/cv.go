package rf

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"carol/internal/obs"
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
// concurrently, bounded by Config.Workers; fold scores are summed in fold
// order, so the result is bit-identical for any Workers value.
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
	scores := make([]float64, k)
	errs := make([]error, k)
	runFold := func(fold int) {
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
			errs[fold] = err
			return
		}
		preds, err := f.PredictBatch(teX)
		if err != nil {
			errs[fold] = err
			return
		}
		var mse float64
		for i, p := range preds {
			d := p - teY[i]
			mse += d * d
		}
		if len(preds) > 0 {
			mse /= float64(len(preds))
		}
		scores[fold] = -mse
	}
	workers := resolveWorkers(cfg.Workers)
	if workers > k {
		workers = k
	}
	if workers == 1 {
		for fold := 0; fold < k; fold++ {
			runFold(fold)
		}
	} else {
		// Exactly `workers` goroutines pulling folds off a shared counter —
		// fold results land positionally, so the schedule cannot affect the
		// score.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					fold := int(next.Add(1)) - 1
					if fold >= k {
						return
					}
					runFold(fold)
				}
			}()
		}
		wg.Wait()
	}
	var totalScore float64
	for fold := 0; fold < k; fold++ {
		if errs[fold] != nil {
			return 0, errs[fold]
		}
		totalScore += scores[fold]
	}
	score := totalScore / float64(k)
	if math.IsNaN(score) {
		return 0, errors.New("rf: NaN cross-validation score")
	}
	return score, nil
}
