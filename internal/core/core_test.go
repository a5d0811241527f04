package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/secre"
	"carol/internal/stats"
	"carol/internal/szx"
	"carol/internal/trainset"
)

func trainFields(t *testing.T) []*field.Field {
	t.Helper()
	opts := dataset.Options{Nx: 32, Ny: 32, Nz: 16}
	var out []*field.Field
	for _, name := range []string{"density", "pressure", "viscosity"} {
		f, err := dataset.Generate("miranda", name, opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

func fastConfig() Config {
	return Config{
		ErrorBounds:  trainset.GeometricBounds(1e-4, 1e-1, 12),
		BOIterations: 6,
		KFolds:       3,
		ForestCap:    10,
		Seed:         7,
	}
}

func TestNewUnknownCodec(t *testing.T) {
	if _, err := New("gzip", Config{}); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestCollectTrainPredictSZx(t *testing.T) {
	fw, err := New("szx", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	fields := trainFields(t)
	cs, err := fw.Collect(fields)
	if err != nil {
		t.Fatal(err)
	}
	// SZx is in the high-throughput group: no calibration runs expected.
	if cs.FullCompressorRuns != 0 {
		t.Fatalf("szx used %d calibration runs", cs.FullCompressorRuns)
	}
	if cs.SurrogateRuns != 3*12 || cs.Samples != 3*12 {
		t.Fatalf("collect stats %+v", cs)
	}
	ts, err := fw.Train()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Evaluated != 6 || len(ts.Trajectory) != 6 || ts.Resumed {
		t.Fatalf("train stats %+v", ts)
	}
	if !fw.Trained() {
		t.Fatal("not trained")
	}

	test, err := dataset.Generate("miranda", "velocityx", dataset.Options{Nx: 32, Ny: 32, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	midStream, err := fw.Codec().Compress(test, compressor.AbsBound(test, 1e-2))
	if err != nil {
		t.Fatal(err)
	}
	target := compressor.Ratio(test, midStream)
	_, achieved, err := fw.CompressToRatio(test, target)
	if err != nil {
		t.Fatal(err)
	}
	if a := stats.PctError(achieved, target); a > 60 {
		t.Fatalf("achieved %g for target %g (α=%.0f%%)", achieved, target, a)
	}
}

func TestSZ3UsesCalibrationByDefault(t *testing.T) {
	cfg := fastConfig()
	cfg.ErrorBounds = trainset.GeometricBounds(1e-3, 1e-1, 6)
	fw, err := New("sz3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	fields := trainFields(t)[:1]
	cs, err := fw.Collect(fields)
	if err != nil {
		t.Fatal(err)
	}
	if cs.FullCompressorRuns != 4 {
		t.Fatalf("sz3 calibration runs = %d, want 4", cs.FullCompressorRuns)
	}
}

func TestNoCalibrationOverride(t *testing.T) {
	cfg := fastConfig()
	cfg.CalibrationPoints = NoCalibration
	fw, err := New("sperr", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := fw.Collect(trainFields(t)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if cs.FullCompressorRuns != 0 {
		t.Fatalf("NoCalibration still ran %d full compressions", cs.FullCompressorRuns)
	}
}

func TestRefineResumesFromCheckpoint(t *testing.T) {
	fw, err := New("szx", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	fields := trainFields(t)
	if _, err := fw.Collect(fields[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
	before := len(fw.Checkpoint())
	cs, ts, err := fw.Refine(fields[2:])
	if err != nil {
		t.Fatal(err)
	}
	if cs.Samples == 0 {
		t.Fatal("refine collected nothing")
	}
	if !ts.Resumed {
		t.Fatal("refine did not resume from checkpoint")
	}
	if ts.Evaluated != fw.cfg.RefineIterations {
		t.Fatalf("refine evaluated %d configs", ts.Evaluated)
	}
	if len(fw.Checkpoint()) != before+ts.Evaluated {
		t.Fatalf("checkpoint grew %d -> %d", before, len(fw.Checkpoint()))
	}
}

func TestCheckpointTransfersBetweenFrameworks(t *testing.T) {
	fw1, err := New("szx", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	fields := trainFields(t)
	if _, err := fw1.Collect(fields); err != nil {
		t.Fatal(err)
	}
	if _, err := fw1.Train(); err != nil {
		t.Fatal(err)
	}
	ckpt := fw1.Checkpoint()

	fw2, err := New("szx", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fw2.RestoreCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := fw2.Collect(fields[:1]); err != nil {
		t.Fatal(err)
	}
	ts, err := fw2.Train()
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Resumed {
		t.Fatal("restored framework did not resume")
	}
}

func TestNewWithCustomSurrogate(t *testing.T) {
	// The extension path: a sampled-full estimator paired with calibration.
	codec := szx.New()
	est := &secre.SampledFull{Codec: codec}
	cfg := fastConfig()
	cfg.CalibrationPoints = 3
	fw := NewWith(codec, est, cfg)
	fields := trainFields(t)[:1]
	cs, err := fw.Collect(fields)
	if err != nil {
		t.Fatal(err)
	}
	if cs.FullCompressorRuns != 3 {
		t.Fatalf("calibration runs = %d, want 3", cs.FullCompressorRuns)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
}

func TestErrorPaths(t *testing.T) {
	fw, err := New("szx", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err == nil {
		t.Fatal("train without data accepted")
	}
	f := trainFields(t)[0]
	if _, err := fw.PredictErrorBound(f, 10); err == nil {
		t.Fatal("untrained predict accepted")
	}
	if _, err := fw.Collect([]*field.Field{f}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.PredictErrorBound(f, 0); err == nil {
		t.Fatal("zero target accepted")
	}
}

// TestPredictErrorBoundsMatchesSingle checks the batch prediction path
// (one feature extraction + Forest.PredictBatch) against per-ratio
// PredictErrorBound calls, and that a Workers cap does not change results.
func TestPredictErrorBoundsMatchesSingle(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 2
	fw, err := New("szx", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Collect(trainFields(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
	test, err := dataset.Generate("miranda", "velocityx", dataset.Options{Nx: 32, Ny: 32, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	ratios := []float64{3, 10, 30, 100}
	batch, err := fw.PredictErrorBounds(test, ratios)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ratios) {
		t.Fatalf("batch returned %d bounds for %d ratios", len(batch), len(ratios))
	}
	for i, r := range ratios {
		one, err := fw.PredictErrorBound(test, r)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != one {
			t.Fatalf("ratio %g: batch %v, single %v", r, batch[i], one)
		}
	}
	if _, err := fw.PredictErrorBounds(test, []float64{10, -1}); err == nil {
		t.Fatal("negative target ratio accepted")
	}
}

// collectWith runs one Collect with the given Workers and returns what it
// left behind: the samples, the stats (minus the wall clock) and the error.
func collectWith(t *testing.T, codec string, workers int, fields []*field.Field) ([]trainset.Sample, CollectStats, error) {
	t.Helper()
	cfg := fastConfig()
	cfg.Workers = workers
	fw, err := New(codec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := fw.Collect(fields)
	cs.Duration = 0
	return fw.TrainingSet().Samples(), cs, err
}

// TestCollectWorkersBitIdentical: fanning fields out over workers must
// leave the training set and stats of the serial loop, bit for bit. SZ3
// covers the calibrated path, SZx the uncalibrated one.
func TestCollectWorkersBitIdentical(t *testing.T) {
	fields := trainFields(t)
	for _, codec := range []string{"szx", "sz3"} {
		want, wantStats, err := collectWith(t, codec, 1, fields)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 3} {
			got, gotStats, err := collectWith(t, codec, workers, fields)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Fatalf("%s: Workers=%d collected %d samples %+v, serial %d samples %+v",
					codec, workers, len(got), gotStats, len(want), wantStats)
			}
		}
	}
}

// TestCollectFirstErrorInFieldOrder: with two bad fields after a good one,
// every Workers value reports the first bad field and keeps exactly the
// good field's samples, as the serial loop did.
func TestCollectFirstErrorInFieldOrder(t *testing.T) {
	good := trainFields(t)[0]
	bad := func(name string) *field.Field {
		f := field.New(name, 16, 16, 4)
		f.Data[5] = float32(math.NaN())
		return f
	}
	fields := []*field.Field{good, bad("first-bad"), bad("second-bad")}
	for _, workers := range []int{1, 0, 3} {
		got, cs, err := collectWith(t, "szx", workers, fields)
		if err == nil || !strings.Contains(err.Error(), "first-bad") {
			t.Fatalf("Workers=%d: error %v, want one naming first-bad", workers, err)
		}
		if len(got) != 12 || cs.Samples != 12 || cs.SurrogateRuns != 12 {
			t.Fatalf("Workers=%d: kept %d samples, stats %+v; want the good field's 12", workers, len(got), cs)
		}
	}
}
