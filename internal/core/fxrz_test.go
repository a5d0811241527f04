package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/stats"
	"carol/internal/szx"
)

// fxrzConfig is fastConfig with FXRZ's grid search cut to two
// configurations.
func fxrzConfig() Config {
	cfg := fastConfig()
	cfg.BOIterations = 2
	return cfg
}

func TestFXRZCollectTrainPredict(t *testing.T) {
	fw := NewFXRZ(szx.New(), fxrzConfig())
	cs, err := fw.Collect(trainFields(t))
	if err != nil {
		t.Fatal(err)
	}
	// Every sample is a run of the real compressor; none is calibration.
	if cs.Samples != 3*12 || cs.FullCompressorRuns != 3*12 || cs.SurrogateRuns != 0 {
		t.Fatalf("collect stats %+v", cs)
	}
	ts, err := fw.Train()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Evaluated != 2 || ts.Resumed || len(ts.Trajectory) != 0 || !fw.Trained() {
		t.Fatalf("train stats %+v", ts)
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

func TestFXRZPredictBeforeTrain(t *testing.T) {
	fw := NewFXRZ(szx.New(), fxrzConfig())
	if _, err := fw.PredictErrorBound(trainFields(t)[0], 10); err == nil {
		t.Fatal("untrained predict accepted")
	}
}

func TestFXRZTrainWithoutData(t *testing.T) {
	fw := NewFXRZ(szx.New(), fxrzConfig())
	if _, err := fw.Train(); err == nil {
		t.Fatal("train without data accepted")
	}
}

func TestFXRZPredictInvalidTarget(t *testing.T) {
	fw := NewFXRZ(szx.New(), fxrzConfig())
	fields := trainFields(t)
	if _, err := fw.Collect(fields[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{0, -5} {
		if _, err := fw.PredictErrorBound(fields[0], target); err == nil {
			t.Fatalf("target %g accepted", target)
		}
	}
}

// TestFXRZCollectWorkersBitIdentical: the preset's collection fans out like
// CAROL's and must leave the serial loop's training set, stats and first
// error, with and without failing fields.
func TestFXRZCollectWorkersBitIdentical(t *testing.T) {
	bad := field.New("bad", 16, 16, 4)
	bad.Data[3] = float32(math.Inf(1))
	for _, fields := range [][]*field.Field{trainFields(t), append(trainFields(t)[:1], bad, bad)} {
		want, wantStats, wantErr := collectWith(t, "fxrz-szx", 1, fields)
		if (wantErr != nil) != (fields[1] == bad) {
			t.Fatalf("serial collect error %v", wantErr)
		}
		if wantStats.FullCompressorRuns != wantStats.Samples || wantStats.SurrogateRuns != 0 {
			t.Fatalf("serial collect stats %+v", wantStats)
		}
		for _, workers := range []int{0, 3} {
			got, gotStats, err := collectWith(t, "fxrz-szx", workers, fields)
			if !reflect.DeepEqual(got, want) || gotStats != wantStats || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("Workers=%d: %d samples %+v err %v; serial %d samples %+v err %v",
					workers, len(got), gotStats, err, len(want), wantStats, wantErr)
			}
		}
	}
}

// TestFXRZDefaults: the preset takes core's defaults for the sweep and the
// search budget, never calibrates, and gives Refine the full budget.
func TestFXRZDefaults(t *testing.T) {
	fw := NewFXRZ(szx.New(), Config{CalibrationPoints: 4, RefineIterations: 3})
	if len(fw.cfg.ErrorBounds) != 35 || fw.cfg.BOIterations != 10 || fw.cfg.RefineIterations != 10 {
		t.Fatalf("defaults %+v", fw.cfg)
	}
	if fw.calibrationPoints() != 0 {
		t.Fatalf("FXRZ calibrates with %d points", fw.calibrationPoints())
	}
}

// TestFXRZRefineStartsOver: FXRZ has no warm start, so Refine's grid search
// is the one a fresh Train on every field runs, forest for forest.
func TestFXRZRefineStartsOver(t *testing.T) {
	fields := trainFields(t)
	refined := NewFXRZ(szx.New(), fxrzConfig())
	if _, err := refined.Collect(fields[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := refined.Train(); err != nil {
		t.Fatal(err)
	}
	_, ts, err := refined.Refine(fields[2:])
	if err != nil {
		t.Fatal(err)
	}
	if ts.Resumed || ts.Evaluated != 2 || len(refined.Checkpoint()) != 0 {
		t.Fatalf("refine stats %+v, %d checkpointed observations", ts, len(refined.Checkpoint()))
	}
	fresh := NewFXRZ(szx.New(), fxrzConfig())
	if _, err := fresh.Collect(fields); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Train(); err != nil {
		t.Fatal(err)
	}
	if got, want := forestDigest(t, refined), forestDigest(t, fresh); got != want {
		t.Fatalf("refined forest %s, fresh forest %s", got, want)
	}
}

// capCodec is szx that fails above an absolute error bound.
type capCodec struct {
	compressor.Codec
	maxEB float64
}

func (c capCodec) Compress(f *field.Field, eb float64) ([]byte, error) {
	if eb > c.maxEB {
		return nil, fmt.Errorf("capCodec: eb %g above %g", eb, c.maxEB)
	}
	return c.Codec.Compress(f, eb)
}

// TestFXRZCollectDropsFailedField: a field whose full-compressor sweep
// fails part-way adds no sample; the fields before it keep theirs.
func TestFXRZCollectDropsFailedField(t *testing.T) {
	cfg := fxrzConfig()
	good := trainFields(t)[0]
	// bad is good scaled by 100: its bounds pass the cap up to rel 1e-3,
	// so its sweep fails after four successful runs.
	bad := field.New("bad", good.Nx, good.Ny, good.Nz)
	for i, v := range good.Data {
		bad.Data[i] = 100 * v
	}
	maxEB := compressor.AbsBound(good, cfg.ErrorBounds[len(cfg.ErrorBounds)-1])
	fw := NewFXRZ(capCodec{Codec: szx.New(), maxEB: maxEB}, cfg)
	if _, err := fw.Collect([]*field.Field{good, bad}); err == nil {
		t.Fatal("Collect accepted a failing sweep")
	}
	if got, want := fw.TrainingSize(), len(cfg.ErrorBounds); got != want {
		t.Fatalf("TrainingSize %d after the failed Collect, want %d (the good field's only)", got, want)
	}
}
