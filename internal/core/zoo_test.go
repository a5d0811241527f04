package core

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"carol/internal/model"
	"carol/internal/rf"
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

// zooFramework returns an untrained framework whose forest fits take a
// small fixed incumbent, for driving the zoo on synthetic data.
func zooFramework(t testing.TB) *Framework {
	t.Helper()
	fw, err := New("szx", Config{KFolds: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fw.bestCfg = rf.Config{NEstimators: 8, MaxDepth: 6, MinSamplesSplit: 4, MinSamplesLeaf: 2, Seed: 3}
	return fw
}

// trainZoo collects trainFields and trains them with cfg.Model = tags.
func trainZoo(t *testing.T, tags string, workers int) (*Framework, TrainStats) {
	t.Helper()
	cfg := fastConfig()
	cfg.Model = tags
	cfg.Workers = workers
	fw, err := New("szx", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Collect(trainFields(t)); err != nil {
		t.Fatal(err)
	}
	ts, err := fw.Train()
	if err != nil {
		t.Fatalf("%s: %v", tags, err)
	}
	return fw, ts
}

func TestZooTrainsAllBackends(t *testing.T) {
	X, y := synthData(240, 1)
	z, err := zooFramework(t).zoo(X, y, model.KnownBackends())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range z {
		if c.Backend != model.KnownBackends()[i] || c.Err != nil {
			t.Fatalf("candidate %d: %s, err %v", i, c.Backend, c.Err)
		}
		if !(c.CVMSE >= 0) || math.IsInf(c.CVMSE, 0) {
			t.Fatalf("backend %s CVMSE %g", c.Backend, c.CVMSE)
		}
	}
	if winner(z) < 0 {
		t.Fatal("no winner")
	}
}

// TestZooFailingBackendRecorded: a backend that cannot train is recorded
// on its candidate and loses; the others still score.
func TestZooFailingBackendRecorded(t *testing.T) {
	X, y := synthData(120, 6)
	z, err := zooFramework(t).zoo(X, y, []string{"nope", model.BackendBoost})
	if err != nil {
		t.Fatal(err)
	}
	if z[0].Err == nil || z[1].Err != nil {
		t.Fatalf("errors %v, %v", z[0].Err, z[1].Err)
	}
	if w := winner(z); w != 1 {
		t.Fatalf("winner %d", w)
	}
}

// TestZooTieBreakPriority: equal scores resolve to the earlier backend in
// list order, and a strictly better score wins regardless.
func TestZooTieBreakPriority(t *testing.T) {
	z := []Candidate{
		{Backend: "rf", CVMSE: 0.5},
		{Backend: "boost", CVMSE: 0.5},
	}
	if w := winner(z); w != 0 {
		t.Fatalf("tie resolved to %d", w)
	}
	z[1].CVMSE = 0.25
	if w := winner(z); w != 1 {
		t.Fatalf("strict winner %d", w)
	}
	z[1].Err = errors.New("boom")
	if w := winner(z); w != 0 {
		t.Fatalf("failed candidate won: %d", w)
	}
	if w := winner([]Candidate{{Backend: "rf", Err: errors.New("x")}}); w != -1 {
		t.Fatalf("all-failed zoo produced winner %d", w)
	}
}

// TestZooValidation: data too small for the fold count is refused.
func TestZooValidation(t *testing.T) {
	X, y := synthData(30, 4)
	fw := zooFramework(t)
	if _, err := fw.zoo(nil, nil, model.KnownBackends()); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := fw.zoo(X[:4], y[:4], model.KnownBackends()); err == nil {
		t.Fatal("too-few samples accepted")
	}
}

// TestZooSubsetLists: one tag fits that backend with no zoo, and the forest
// search runs only when rf is listed; a list scores its tags in its order.
func TestZooSubsetLists(t *testing.T) {
	for _, tc := range []struct {
		tags string
		zoo  []string
		bo   bool
	}{
		{"boost", nil, false},
		{"rf", nil, true},
		{"boost,rf", []string{"boost", "rf"}, true},
	} {
		fw, ts := trainZoo(t, tc.tags, 1)
		var got []string
		for _, c := range ts.Zoo {
			got = append(got, c.Backend)
		}
		if !slices.Equal(got, tc.zoo) {
			t.Errorf("%s: zoo %v, want %v", tc.tags, got, tc.zoo)
		}
		if bo := len(fw.Checkpoint()) > 0; bo != tc.bo || (len(ts.Trajectory) > 0) != tc.bo {
			t.Errorf("%s: BO ran %v (%d evaluations), want %v", tc.tags, bo, len(ts.Trajectory), tc.bo)
		}
		if tc.zoo == nil && ts.Backend != tc.tags {
			t.Errorf("%s: fitted %s", tc.tags, ts.Backend)
		}
	}
}

// TestZooArtifact: the artifact carries the fitted backend's tag, the
// model and the given metadata, and reads back; an untrained framework
// has none.
func TestZooArtifact(t *testing.T) {
	fw, ts := trainZoo(t, "rf,boost", 0)
	a, err := fw.Artifact(map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := model.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Codec != "szx" || b.BackendTag() != ts.Backend || b.Meta["k"] != "v" {
		t.Fatalf("artifact %s/%s meta %v, fitted %s", b.Codec, b.BackendTag(), b.Meta, ts.Backend)
	}
	if err := b.ServingCheck(); err != nil {
		t.Fatal(err)
	}
	fresh, err := New("szx", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Artifact(nil); err == nil {
		t.Fatal("untrained framework produced an artifact")
	}
}

// TestZooWorkersBitIdentical: the winner, every CV score and the fitted
// model's bits are the same at Workers 1 and 4.
func TestZooWorkersBitIdentical(t *testing.T) {
	encode := func(fw *Framework) []byte {
		a, err := fw.Artifact(nil)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	for _, tags := range []string{"rf,boost", "boost,rf"} {
		fw1, ts1 := trainZoo(t, tags, 1)
		fw4, ts4 := trainZoo(t, tags, 4)
		if ts1.Backend != ts4.Backend || len(ts1.Zoo) != 2 || len(ts4.Zoo) != 2 {
			t.Fatalf("%s: winner %s vs %s, zoo %v vs %v", tags, ts1.Backend, ts4.Backend, ts1.Zoo, ts4.Zoo)
		}
		for i := range ts1.Zoo {
			a, b := ts1.Zoo[i], ts4.Zoo[i]
			if a.Err != nil || b.Err != nil || math.Float64bits(a.CVMSE) != math.Float64bits(b.CVMSE) {
				t.Fatalf("%s: %s CV %v (%v) vs %v (%v)", tags, a.Backend, a.CVMSE, a.Err, b.CVMSE, b.Err)
			}
		}
		if !bytes.Equal(encode(fw1), encode(fw4)) {
			t.Fatalf("%s: model bits differ between Workers 1 and 4", tags)
		}
	}
}

// BenchmarkZooTrain measures one zoo cycle per backend — k-fold CV plus
// the final full-data fit — on a few hundred samples.
func BenchmarkZooTrain(b *testing.B) {
	X, y := synthData(400, 11)
	fw := zooFramework(b)
	for _, backend := range model.KnownBackends() {
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				z, err := fw.zoo(X, y, []string{backend})
				if err == nil {
					err = z[0].Err
				}
				if err == nil {
					_, err = fw.fitAs(backend, X, y)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZooPredict measures the serving-side batch prediction cost of
// each backend (512-row batch), the hot path a published artifact pays on
// every PredictErrorBounds call.
func BenchmarkZooPredict(b *testing.B) {
	X, y := synthData(400, 12)
	batch, _ := synthData(512, 13)
	fw := zooFramework(b)
	for _, backend := range model.KnownBackends() {
		m, err := fw.fitAs(backend, X, y)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				preds, err := m.PredictBatch(batch)
				if err != nil {
					b.Fatal(err)
				}
				if len(preds) != len(batch) {
					b.Fatalf("got %d preds", len(preds))
				}
			}
		})
	}
}
