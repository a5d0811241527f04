package zoo

import (
	"errors"
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

func smallConfig(workers int) Config {
	cfg := Config{KFolds: 3, Seed: 7, Workers: workers}
	cfg.RF.NEstimators = 8
	cfg.RF.MaxDepth = 6
	cfg.RF.MinSamplesSplit = 4
	cfg.RF.MinSamplesLeaf = 2
	cfg.RF.Seed = 3
	cfg.Boost.Rounds = 15
	return cfg
}

func TestTrainAllBackends(t *testing.T) {
	X, y := synthData(240, 1)
	res, err := Train(X, y, smallConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != len(model.KnownBackends()) {
		t.Fatalf("%d candidates", len(res.Candidates))
	}
	for _, c := range res.Candidates {
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
	best := res.Best()
	if best == nil {
		t.Fatal("no winner")
	}
	sb := res.Scoreboard()
	if sb["zoo_best_backend"] != best.Backend {
		t.Fatalf("scoreboard winner %q, best %q", sb["zoo_best_backend"], best.Backend)
	}
	for _, b := range model.KnownBackends() {
		if _, ok := sb["zoo_cv_mse_"+b]; !ok {
			t.Fatalf("scoreboard missing %s", b)
		}
	}
}

// TestDeterminism pins the whole zoo run: same data, same config →
// bit-identical scores and winner, for any Workers value.
func TestDeterminism(t *testing.T) {
	X, y := synthData(180, 2)
	ref, err := Train(X, y, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		res, err := Train(X, y, smallConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Candidates {
			got, want := res.Candidates[i], ref.Candidates[i]
			if got.Backend != want.Backend {
				t.Fatalf("candidate order changed: %s vs %s", got.Backend, want.Backend)
			}
			if math.Float64bits(got.CVMSE) != math.Float64bits(want.CVMSE) {
				t.Fatalf("workers=%d: %s CVMSE %g != %g", workers, got.Backend, got.CVMSE, want.CVMSE)
			}
		}
		if res.Best().Backend != ref.Best().Backend {
			t.Fatalf("workers=%d: winner changed", workers)
		}
	}
}

// TestTieBreakPriority: equal scores must resolve to the earlier backend
// in priority order, and a strictly better score must win regardless.
func TestTieBreakPriority(t *testing.T) {
	r := &Result{Candidates: []Candidate{
		{Backend: "rf", CVMSE: 0.5},
		{Backend: "boost", CVMSE: 0.5},
	}}
	if r.Best().Backend != "rf" {
		t.Fatalf("tie resolved to %s", r.Best().Backend)
	}
	r.Candidates[1].CVMSE = 0.25
	if r.Best().Backend != "boost" {
		t.Fatalf("strict winner %s", r.Best().Backend)
	}
	r.Candidates[1].Err = errors.New("boom")
	if r.Best().Backend != "rf" {
		t.Fatalf("failed candidate won: %s", r.Best().Backend)
	}
	empty := &Result{Candidates: []Candidate{{Backend: "rf", Err: errors.New("x")}}}
	if empty.Best() != nil {
		t.Fatal("all-failed zoo produced a winner")
	}
}

func TestCandidateArtifact(t *testing.T) {
	X, y := synthData(150, 3)
	res, err := Train(X, y, smallConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Candidates {
		c := &res.Candidates[i]
		a, err := c.Artifact("szx", res.Scoreboard())
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
		if b.Meta["zoo_best_backend"] != res.Best().Backend {
			t.Fatal("scoreboard metadata lost")
		}
	}
	failed := &Candidate{Backend: "rf", Err: errors.New("nope")}
	if _, err := failed.Artifact("szx", nil); err == nil {
		t.Fatal("failed candidate produced artifact")
	}
}

func TestTrainValidation(t *testing.T) {
	X, y := synthData(30, 4)
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := Train(X[:4], y[:4], Config{KFolds: 3}); err == nil {
		t.Fatal("too-few samples accepted")
	}
	for _, tag := range []string{"svm", "knn"} {
		if _, err := Train(X, y, Config{KFolds: 2, Backends: []string{tag}}); err == nil {
			t.Fatalf("unknown backend %q accepted", tag)
		}
	}
	if _, err := Train(X, y, Config{KFolds: 2, Backends: []string{"rf", "rf"}}); err == nil {
		t.Fatal("duplicate backend accepted")
	}
}

// TestSubsetBackends runs a restricted zoo (the caroltrain -backends flag
// path) and checks only the requested backends appear.
func TestSubsetBackends(t *testing.T) {
	X, y := synthData(100, 5)
	cfg := smallConfig(0)
	cfg.Backends = []string{"boost"}
	res, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 1 || res.Candidates[0].Backend != "boost" {
		t.Fatalf("candidates %+v", res.Candidates)
	}
	if _, ok := res.Scoreboard()["zoo_cv_mse_rf"]; ok {
		t.Fatal("unrequested backend scored")
	}
}
