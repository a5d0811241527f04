package main

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"carol/internal/model"
	"carol/internal/trainset"
	"carol/internal/xrand"
)

// synthData builds a canonical-dimensionality training set with a smooth
// signal plus noise.
func synthData(n int, seed uint64) ([][]float64, []float64) {
	rng := xrand.New(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, trainset.InputDim)
		for j := range row {
			row[j] = rng.Float64()*2 - 1
		}
		X[i] = row
		y[i] = -3 + row[0] - 0.7*row[1]*row[1] + 0.5*row[5] + 0.02*rng.Norm()
	}
	return X, y
}

// smallZoo returns the zoo flags and fit configuration of a quick run
// over every backend.
func smallZoo(workers int) (options, model.FitConfig) {
	o := options{backends: model.KnownBackends(), kfolds: 3, seed: 7, workers: workers}
	var fc model.FitConfig
	fc.RF.NEstimators = 8
	fc.RF.MaxDepth = 6
	fc.RF.MinSamplesSplit = 4
	fc.RF.MinSamplesLeaf = 2
	fc.RF.Seed = 3
	fc.Boost.Rounds = 15
	return o, fc
}

func TestZooTrainsAllBackends(t *testing.T) {
	X, y := synthData(240, 1)
	o, fc := smallZoo(0)
	res, err := runZoo(X, y, o, fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(model.KnownBackends()) {
		t.Fatalf("%d candidates", len(res))
	}
	for _, c := range res {
		if c.Err != nil {
			t.Fatalf("backend %s failed: %v", c.Backend, c.Err)
		}
		if !(c.CVMSE >= 0) || math.IsInf(c.CVMSE, 0) {
			t.Fatalf("backend %s CVMSE %g", c.Backend, c.CVMSE)
		}
		if c.Model == nil || c.Model.Dims() != trainset.InputDim {
			t.Fatalf("backend %s carries model %v", c.Backend, c.Model)
		}
	}
	best := res.best()
	if best == nil {
		t.Fatal("no winner")
	}
	sb := res.scoreboard()
	if sb["zoo_best_backend"] != best.Backend {
		t.Fatalf("scoreboard winner %q, best %q", sb["zoo_best_backend"], best.Backend)
	}
	for _, b := range model.KnownBackends() {
		if _, ok := sb["zoo_cv_mse_"+b]; !ok {
			t.Fatalf("scoreboard missing %s", b)
		}
	}
}

// TestZooDeterminism pins the whole zoo run: same data, same config →
// bit-identical scores and winner, for any -workers value.
func TestZooDeterminism(t *testing.T) {
	X, y := synthData(180, 2)
	o, fc := smallZoo(1)
	ref, err := runZoo(X, y, o, fc)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		o.workers = workers
		res, err := runZoo(X, y, o, fc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			got, want := res[i], ref[i]
			if got.Backend != want.Backend {
				t.Fatalf("candidate order changed: %s vs %s", got.Backend, want.Backend)
			}
			if math.Float64bits(got.CVMSE) != math.Float64bits(want.CVMSE) {
				t.Fatalf("workers=%d: %s CVMSE %g != %g", workers, got.Backend, got.CVMSE, want.CVMSE)
			}
		}
		if res.best().Backend != ref.best().Backend {
			t.Fatalf("workers=%d: winner changed", workers)
		}
	}
}

// TestZooTieBreakPriority: equal scores must resolve to the earlier
// backend in -backends order, and a strictly better score must win
// regardless.
func TestZooTieBreakPriority(t *testing.T) {
	r := zoo{
		{Backend: "rf", CVMSE: 0.5},
		{Backend: "boost", CVMSE: 0.5},
	}
	if r.best().Backend != "rf" {
		t.Fatalf("tie resolved to %s", r.best().Backend)
	}
	r[1].CVMSE = 0.25
	if r.best().Backend != "boost" {
		t.Fatalf("strict winner %s", r.best().Backend)
	}
	r[1].Err = errors.New("boom")
	if r.best().Backend != "rf" {
		t.Fatalf("failed candidate won: %s", r.best().Backend)
	}
	empty := zoo{{Backend: "rf", Err: errors.New("x")}}
	if empty.best() != nil {
		t.Fatal("all-failed zoo produced a winner")
	}
}

func TestZooCandidateArtifact(t *testing.T) {
	X, y := synthData(150, 3)
	o, fc := smallZoo(0)
	res, err := runZoo(X, y, o, fc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		c := &res[i]
		a, err := c.artifact("szx", res.scoreboard())
		if err != nil {
			t.Fatalf("%s artifact: %v", c.Backend, err)
		}
		buf, err := a.Encode()
		if err != nil {
			t.Fatalf("%s encode: %v", c.Backend, err)
		}
		b, err := model.Read(buf)
		if err != nil {
			t.Fatalf("%s read: %v", c.Backend, err)
		}
		if b.BackendTag() != c.Backend {
			t.Fatalf("artifact backend %q, want %q", b.BackendTag(), c.Backend)
		}
		if b.Meta["zoo_best_backend"] != res.best().Backend {
			t.Fatal("scoreboard metadata lost")
		}
	}
	failed := &candidate{Backend: "rf", Err: errors.New("nope")}
	if _, err := failed.artifact("szx", nil); err == nil {
		t.Fatal("failed candidate produced artifact")
	}
}

// TestZooValidation: data too small for the fold count is refused. A bad
// backend list never reaches the zoo; TestRunZooBackends holds parseFlags
// to refusing it.
func TestZooValidation(t *testing.T) {
	X, y := synthData(30, 4)
	o, fc := smallZoo(0)
	if _, err := runZoo(nil, nil, o, fc); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := runZoo(X[:4], y[:4], o, fc); err == nil {
		t.Fatal("too-few samples accepted")
	}
}

// TestZooSubsetBackends runs a restricted zoo (-backends boost) and
// checks only the requested backends appear.
func TestZooSubsetBackends(t *testing.T) {
	X, y := synthData(100, 5)
	o, fc := smallZoo(0)
	o.backends = []string{"boost"}
	res, err := runZoo(X, y, o, fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Backend != "boost" {
		t.Fatalf("candidates %+v", res)
	}
	if _, ok := res.scoreboard()["zoo_cv_mse_rf"]; ok {
		t.Fatal("unrequested backend scored")
	}
}

// BenchmarkZooTrain measures one full zoo cycle per backend — k-fold CV
// plus the final full-data fit — on a few hundred samples.
func BenchmarkZooTrain(b *testing.B) {
	X, y := synthData(400, 11)
	for _, backend := range model.KnownBackends() {
		b.Run(backend, func(b *testing.B) {
			o, fc := smallZoo(0)
			o.backends = []string{backend}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runZoo(X, y, o, fc)
				if err != nil {
					b.Fatal(err)
				}
				if res.best() == nil {
					b.Fatal("no winner")
				}
			}
		})
	}
}

// BenchmarkZooPredict measures the serving-side batch prediction cost of
// each trained backend (512-row batch), the hot path a published artifact
// pays on every PredictErrorBounds call.
func BenchmarkZooPredict(b *testing.B) {
	X, y := synthData(400, 12)
	o, fc := smallZoo(0)
	res, err := runZoo(X, y, o, fc)
	if err != nil {
		b.Fatal(err)
	}
	batch, _ := synthData(512, 13)
	for i := range res {
		c := &res[i]
		if c.Err != nil {
			b.Fatalf("backend %s failed: %v", c.Backend, c.Err)
		}
		a, err := c.artifact("szx", nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Backend, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				preds, err := a.Regressor.PredictBatch(batch)
				if err != nil {
					b.Fatal(err)
				}
				if len(preds) != len(batch) {
					b.Fatal(fmt.Errorf("got %d preds", len(preds)))
				}
			}
		})
	}
}
