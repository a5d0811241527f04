package fxrz

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
		ErrorBounds: trainset.GeometricBounds(1e-4, 1e-1, 12),
		GridConfigs: 2,
		KFolds:      3,
		ForestCap:   10,
		Seed:        7,
	}
}

func TestCollectTrainPredict(t *testing.T) {
	fw := New(szx.New(), fastConfig())
	fields := trainFields(t)
	cs, err := fw.Collect(fields)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Samples != 3*12 || cs.CompressorRuns != 3*12 {
		t.Fatalf("collect stats %+v", cs)
	}
	if fw.TrainingSize() != cs.Samples {
		t.Fatalf("TrainingSize %d", fw.TrainingSize())
	}
	ts, err := fw.Train()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Configs != 2 || !fw.Trained() {
		t.Fatalf("train stats %+v", ts)
	}

	// Predict on a held-out field and verify the achieved ratio lands in
	// the right neighborhood of the request.
	test, err := dataset.Generate("miranda", "velocityx", dataset.Options{Nx: 32, Ny: 32, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a realistic target: the ratio SZx actually achieves mid-sweep.
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

func TestPredictBeforeTrain(t *testing.T) {
	fw := New(szx.New(), fastConfig())
	f := trainFields(t)[0]
	if _, err := fw.PredictErrorBound(f, 10); err == nil {
		t.Fatal("untrained predict accepted")
	}
}

func TestTrainWithoutData(t *testing.T) {
	fw := New(szx.New(), fastConfig())
	if _, err := fw.Train(); err == nil {
		t.Fatal("train without data accepted")
	}
}

func TestPredictInvalidTarget(t *testing.T) {
	fw := New(szx.New(), fastConfig())
	fields := trainFields(t)
	if _, err := fw.Collect(fields[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.PredictErrorBound(fields[0], -5); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	fw := New(szx.New(), Config{})
	if len(fw.cfg.ErrorBounds) != 35 {
		t.Fatalf("default sweep has %d bounds", len(fw.cfg.ErrorBounds))
	}
	if fw.cfg.GridConfigs != 10 || fw.cfg.FeatureStride != 4 {
		t.Fatalf("defaults %+v", fw.cfg)
	}
}

// TestCollectWorkersBitIdentical: FXRZ's collection fans out like CAROL's
// and must leave the serial loop's training set, stats and first error.
func TestCollectWorkersBitIdentical(t *testing.T) {
	bad := field.New("bad", 16, 16, 4)
	bad.Data[3] = float32(math.Inf(1))
	for _, fields := range [][]*field.Field{trainFields(t), append(trainFields(t)[:1], bad, bad)} {
		collect := func(workers int) ([]trainset.Sample, CollectStats, error) {
			cfg := fastConfig()
			cfg.Workers = workers
			fw := New(szx.New(), cfg)
			cs, err := fw.Collect(fields)
			cs.Duration = 0
			return fw.set.Samples(), cs, err
		}
		want, wantStats, wantErr := collect(1)
		if (wantErr != nil) != (fields[1] == bad) {
			t.Fatalf("serial collect error %v", wantErr)
		}
		for _, workers := range []int{0, 3} {
			got, gotStats, err := collect(workers)
			if !reflect.DeepEqual(got, want) || gotStats != wantStats || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("Workers=%d: %d samples %+v err %v; serial %d samples %+v err %v",
					workers, len(got), gotStats, err, len(want), wantStats, wantErr)
			}
		}
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

// TestCollectDropsFailedField: a field whose sweep fails part-way adds no
// sample, as in CAROL's Collect; the fields before it keep theirs.
func TestCollectDropsFailedField(t *testing.T) {
	cfg := fastConfig()
	good := trainFields(t)[0]
	// bad is good scaled by 100: its bounds pass the cap up to rel 1e-3,
	// so its sweep fails after four successful runs.
	bad := field.New("bad", good.Nx, good.Ny, good.Nz)
	for i, v := range good.Data {
		bad.Data[i] = 100 * v
	}
	maxEB := compressor.AbsBound(good, cfg.ErrorBounds[len(cfg.ErrorBounds)-1])
	fw := New(capCodec{Codec: szx.New(), maxEB: maxEB}, cfg)
	if _, err := fw.Collect([]*field.Field{good, bad}); err == nil {
		t.Fatal("Collect accepted a failing sweep")
	}
	if got, want := fw.TrainingSize(), len(cfg.ErrorBounds); got != want {
		t.Fatalf("TrainingSize %d after the failed Collect, want %d (the good field's only)", got, want)
	}
}
