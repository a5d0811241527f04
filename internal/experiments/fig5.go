package experiments

import (
	"fmt"
	"io"

	"carol/internal/bayesopt"
	"carol/internal/gridsearch"
	"carol/internal/rf"
	"carol/internal/xrand"
)

// synthTrainingSet builds a regression problem shaped like the frameworks'
// training data: 6 inputs (5 features + log ratio), 1 target (log rel eb),
// with a smooth underlying mapping.
func synthTrainingSet(n int, seed uint64) ([][]float64, []float64) {
	rng := xrand.New(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		mean := rng.Range(-1, 1)
		rg := rng.Range(0.5, 4)
		mnd := rng.Range(0, 0.2)
		mld := rng.Range(0, 0.2)
		msd := rng.Range(0, 0.4)
		logR := rng.Range(0.3, 3)
		X[i] = []float64{mean, rg, mnd, mld, msd, logR}
		// Smoother data (low mnd) needs looser bounds for the same ratio.
		y[i] = -4 + logR*0.9 + 2*mnd/(0.1+rg) + 0.3*msd + 0.02*rng.Norm()
	}
	return X, y
}

// trainingSizes returns the sweep of training-set sizes per scale.
func trainingSizes(s Scale) []int {
	if s == ScalePaper {
		return []int{2000, 8000, 20000, 40000}
	}
	return []int{300, 1000, 3000}
}

// RunFig5a reproduces Figure 5a: training time as the training set grows,
// for FXRZ's randomized grid search, CAROL's Bayesian optimization from
// scratch, and CAROL's checkpointed incremental refinement.
func RunFig5a(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Fig 5a", "Training time vs training-set size")
	tw := newTable(w)
	fmt.Fprintln(tw, "samples\tgrid search\tBO (fresh)\tBO (checkpointed)")

	space := gridsearch.BOSpace()
	// The checkpointed run carries observations across sizes, modelling a
	// framework that refines as data accumulates.
	ckptOpt := bayesopt.New(space, p.seed)
	refineIters := 3

	for _, n := range trainingSizes(s) {
		X, y := synthTrainingSet(n, p.seed)

		gridTime, err := timeIt(func() error {
			_, err := gridsearch.Search(X, y, p.gridCfgs, 3, p.seed, p.forestCap, 0)
			return err
		})
		if err != nil {
			return err
		}

		boTime, err := timeIt(func() error {
			_, err := gridsearch.Bayes(bayesopt.New(space, p.seed), X, y, p.boIters, 3, p.seed, p.forestCap, 0)
			return err
		})
		if err != nil {
			return err
		}

		ckptTime, err := timeIt(func() error {
			_, err := gridsearch.Bayes(ckptOpt, X, y, refineIters, 3, p.seed, p.forestCap, 0)
			return err
		})
		if err != nil {
			return err
		}

		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\n", n, ms(gridTime), ms(boTime), ms(ckptTime))
	}
	return tw.Flush()
}

// RunFig5b reproduces Figure 5b: the n_estimators hyper-parameter chosen at
// each of the BO iterations, for all six datasets — exploration scattering
// early, exploitation settling late.
func RunFig5b(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Fig 5b", "n_estimators per BO iteration, six datasets")
	iters := 10
	tw := newTable(w)
	fmt.Fprint(tw, "iter")
	datasets := []string{"miranda", "nyx", "cesm", "hurricane", "hcci", "mrs"}
	for _, ds := range datasets {
		fmt.Fprintf(tw, "\t%s", ds)
	}
	fmt.Fprintln(tw)

	series := make([][]rf.Config, len(datasets))
	for di, ds := range datasets {
		X, y, err := collectedTrainingData(p, ds)
		if err != nil {
			return err
		}
		// No forest cap here: the training sets are small, and capping
		// NEstimators would erase the very convergence signal this figure
		// plots.
		opt := bayesopt.New(gridsearch.BOSpace(), p.seed+uint64(di))
		res, err := gridsearch.Bayes(opt, X, y, iters, 3, p.seed, 0, 0)
		if err != nil {
			return err
		}
		series[di] = res.Trajectory
	}
	for i := 0; i < iters; i++ {
		fmt.Fprintf(tw, "%d", i+1)
		for di := range datasets {
			fmt.Fprintf(tw, "\t%d", series[di][i].NEstimators)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
