package retrain

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"carol/internal/features"
	"carol/internal/model"
	"carol/internal/registry"
	"carol/internal/rf"
	"carol/internal/safedec"
	"carol/internal/trainset"
	"carol/internal/xrand"
	"carol/internal/zoo"
)

// fixedNow pins retrained_at so cycle outputs are reproducible in tests.
func fixedNow() time.Time { return time.Unix(1700000000, 0) }

// trafficRecord synthesises one served-traffic observation with a
// learnable relationship: log10(relEB) is an affine function of the
// features and the log-ratio plus small noise.
func trafficRecord(rng *xrand.Source) trainset.Record {
	v := features.Vector{
		Mean:  rng.Float64()*4 - 2,
		Range: 1 + rng.Float64()*9,
		MND:   rng.Float64(),
		MLD:   rng.Float64(),
		MSD:   rng.Float64() * 3,
	}
	ratio := 4 + rng.Float64()*60
	target := -3.2 + 0.8*math.Log10(ratio) + 0.15*v.Mean - 0.1*v.MND + 0.01*rng.Norm()
	return trainset.Record{Features: v, Ratio: ratio, RelEB: math.Pow(10, target)}
}

// writeJournal fills a harvest journal with n synthetic records.
func writeJournal(t *testing.T, dir string, n int, seed uint64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := trainset.OpenJournal(trainset.JournalPath(dir, "szx"), trainset.DefaultJournalCap)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		if err := j.Append(trafficRecord(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// publishBadLive publishes a deliberately terrible live model: an rf
// trained to predict a constant far from any real target.
func publishBadLive(t *testing.T, regDir string) {
	t.Helper()
	rng := xrand.New(99)
	X := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range X {
		row := make([]float64, trainset.InputDim)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = -11 // constant, ~9 decades off the traffic's relEB scale
	}
	cfg := rf.DefaultConfig()
	cfg.NEstimators = 5
	f, err := rf.Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &model.Artifact{Codec: "szx", Backend: model.BackendRF, Schema: model.CanonicalSchema(), Regressor: f}
	buf, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("szx", buf); err != nil {
		t.Fatal(err)
	}
}

func testConfig(harvestDir, regDir string) Config {
	zcfg := zoo.Config{KFolds: 3, Seed: 5}
	zcfg.RF.NEstimators = 10
	zcfg.RF.MaxDepth = 8
	zcfg.RF.MinSamplesSplit = 4
	zcfg.RF.MinSamplesLeaf = 2
	zcfg.RF.Seed = 2
	zcfg.Boost.Rounds = 20
	zcfg.KNN.K = 5
	return Config{
		Codec:       "szx",
		RegistryDir: regDir,
		HarvestDir:  harvestDir,
		Zoo:         zcfg,
		Now:         fixedNow,
	}
}

func TestTooFewSamples(t *testing.T) {
	dir := t.TempDir()
	harvest, regDir := filepath.Join(dir, "harvest"), filepath.Join(dir, "models")
	writeJournal(t, harvest, 7, 1)
	rep, err := RunOnce(testConfig(harvest, regDir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictTooFewSamples || rep.Published != nil {
		t.Fatalf("verdict %s, published %v", rep.Verdict, rep.Published)
	}
	if rep.Harvested != 7 {
		t.Fatalf("harvested %d", rep.Harvested)
	}
	// Nothing may have been created in the registry.
	reg, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("registry gained models %v without a retrain", names)
	}
}

func TestBootstrapPublish(t *testing.T) {
	dir := t.TempDir()
	harvest, regDir := filepath.Join(dir, "harvest"), filepath.Join(dir, "models")
	writeJournal(t, harvest, 160, 2)
	rep, err := RunOnce(testConfig(harvest, regDir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictBootstrap {
		t.Fatalf("verdict %s", rep.Verdict)
	}
	if rep.Published == nil || rep.Published.Number != 1 {
		t.Fatalf("published %+v", rep.Published)
	}
	if rep.Live != nil {
		t.Fatal("bootstrap cycle evaluated a live model")
	}
	if rep.CandidateBackend == "" {
		t.Fatal("no candidate backend recorded")
	}
	// The published artifact carries the retrain provenance metadata.
	reg, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.Latest("szx")
	if err != nil {
		t.Fatal(err)
	}
	a, err := reg.Load(v, safedec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Meta["source"] != "retrain" || a.Meta["zoo_best_backend"] != rep.CandidateBackend {
		t.Fatalf("meta %v", a.Meta)
	}
	if a.BackendTag() != rep.CandidateBackend {
		t.Fatalf("backend %s, reported %s", a.BackendTag(), rep.CandidateBackend)
	}
}

// TestWinThenNoWin drives the two decisive shadow paths back to back:
// a terrible live model must be displaced (win), and an immediate rerun
// on unchanged data must NOT publish again — the deterministic candidate
// ties the now-live model and a tie is not a win.
func TestWinThenNoWin(t *testing.T) {
	dir := t.TempDir()
	harvest, regDir := filepath.Join(dir, "harvest"), filepath.Join(dir, "models")
	writeJournal(t, harvest, 200, 3)
	publishBadLive(t, regDir)

	rep, err := RunOnce(testConfig(harvest, regDir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictPublished {
		t.Fatalf("verdict %s (cand %+v live %+v)", rep.Verdict, rep.Candidate, rep.Live)
	}
	if rep.Published == nil || rep.Published.Number != 2 {
		t.Fatalf("published %+v", rep.Published)
	}
	if rep.Candidate == nil || rep.Live == nil {
		t.Fatal("shadow stats missing")
	}
	if !(rep.Candidate.P50 < rep.Live.P50) {
		t.Fatalf("candidate p50 %g did not beat live %g", rep.Candidate.P50, rep.Live.P50)
	}
	if rep.Candidate.N != rep.HoldoutRows || rep.Live.N != rep.HoldoutRows {
		t.Fatalf("eval N cand=%d live=%d holdout=%d", rep.Candidate.N, rep.Live.N, rep.HoldoutRows)
	}

	rep2, err := RunOnce(testConfig(harvest, regDir))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Verdict != VerdictNoWin {
		t.Fatalf("rerun verdict %s (cand %+v live %+v)", rep2.Verdict, rep2.Candidate, rep2.Live)
	}
	if rep2.Published != nil {
		t.Fatal("losing candidate was published")
	}
	reg, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.Latest("szx")
	if err != nil {
		t.Fatal(err)
	}
	if v.Number != 2 {
		t.Fatalf("registry advanced to v%d after a no-win cycle", v.Number)
	}
}

func TestBaseCorpusAndGC(t *testing.T) {
	dir := t.TempDir()
	harvest, regDir := filepath.Join(dir, "harvest"), filepath.Join(dir, "models")
	writeJournal(t, harvest, 120, 4)
	publishBadLive(t, regDir)

	var base trainset.Set
	rng := xrand.New(5)
	for i := 0; i < 40; i++ {
		rec := trafficRecord(rng)
		if err := base.Add(rec.Sample()); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig(harvest, regDir)
	cfg.Base = &base
	cfg.GCKeep = 1
	rep, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictPublished {
		t.Fatalf("verdict %s", rep.Verdict)
	}
	wantTrain := 40 + rep.Harvested - rep.HoldoutRows
	if rep.TrainRows != wantTrain {
		t.Fatalf("train rows %d, want %d", rep.TrainRows, wantTrain)
	}
	// GCKeep=1 leaves only the freshly published version behind.
	reg, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	versions, err := reg.Versions("szx")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 || versions[0].Number != rep.Published.Number {
		t.Fatalf("versions %+v", versions)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(append([]float64(nil), xs...), 0.5); got != 3 {
		t.Fatalf("p50 %g", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0.9); got != 5 {
		t.Fatalf("p90 %g", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("single-sample %g", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("empty quantile not NaN")
	}
}

func TestWinRule(t *testing.T) {
	live := &EvalStats{N: 50, P50: 0.10, P90: 0.50}
	if !wins(&EvalStats{N: 50, P50: 0.05, P90: 0.40}, live, 0.02) {
		t.Fatal("clear improvement rejected")
	}
	if wins(&EvalStats{N: 50, P50: 0.10, P90: 0.40}, live, 0.02) {
		t.Fatal("tie accepted")
	}
	if wins(&EvalStats{N: 50, P50: 0.0999, P90: 0.40}, live, 0.02) {
		t.Fatal("sub-margin improvement accepted")
	}
	if wins(&EvalStats{N: 50, P50: 0.05, P90: 0.60}, live, 0.02) {
		t.Fatal("tail regression accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RunOnce(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := RunOnce(Config{Codec: "szx"}); err == nil {
		t.Fatal("missing dirs accepted")
	}
	if _, err := RunOnce(Config{Codec: "szx", Name: "NOT/VALID", RegistryDir: "r", HarvestDir: "h"}); err == nil {
		t.Fatal("bad registry name accepted")
	}
	if _, err := NewController(Config{Codec: "szx", RegistryDir: "r", HarvestDir: "h"}, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
	// A bad backend list is a config error, caught before any journal is read.
	for _, bad := range [][]string{{"svm"}, {"rf", "rf"}} {
		cfg := Config{Codec: "szx", RegistryDir: "r", HarvestDir: "h"}
		cfg.Zoo.Backends = bad
		if _, err := NewController(cfg, time.Hour); err == nil {
			t.Fatalf("backends %v accepted", bad)
		}
	}
}

// TestControllerLoop drives the scheduled path: the first cycle fires
// immediately, reports flow through Observe, and cancel stops the loop.
func TestControllerLoop(t *testing.T) {
	dir := t.TempDir()
	harvest, regDir := filepath.Join(dir, "harvest"), filepath.Join(dir, "models")
	writeJournal(t, harvest, 3, 6)
	ctrl, err := NewController(testConfig(harvest, regDir), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan *Report, 1)
	ctrl.Observe = func(rep *Report, err error) {
		if err != nil {
			t.Errorf("cycle error: %v", err)
		}
		select {
		case got <- rep:
		default:
		}
		cancel()
	}
	done := make(chan struct{})
	go func() {
		ctrl.Run(ctx)
		close(done)
	}()
	select {
	case rep := <-got:
		if rep.Verdict != VerdictTooFewSamples {
			t.Errorf("verdict %s", rep.Verdict)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no cycle ran")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("controller did not stop on cancel")
	}
}
