package core

import (
	"math"
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/features"
	"carol/internal/field"
	"carol/internal/model"
	"carol/internal/obs"
	"carol/internal/stats"
	"carol/internal/szx"
)

// TestAlternativeModels exercises the paper's future-work direction: the
// framework must train and predict with every backend in the model table
// in place of the random forest, with sane end-to-end accuracy.
func TestAlternativeModels(t *testing.T) {
	fields := trainFields(t)
	test, err := dataset.Generate("miranda", "velocityx", dataset.Options{Nx: 32, Ny: 32, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := New("szx", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	midStream, err := probe.Codec().Compress(test, compressor.AbsBound(test, 1e-2))
	if err != nil {
		t.Fatal(err)
	}
	target := compressor.Ratio(test, midStream)

	for _, backend := range model.KnownBackends() {
		cfg := fastConfig()
		cfg.Model = backend
		fw, err := New("szx", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Collect(fields); err != nil {
			t.Fatal(err)
		}
		ts, err := fw.Train()
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if backend != model.BackendRF && ts.Evaluated != 1 {
			t.Fatalf("%s: evaluated %d (no hyper-search expected)", backend, ts.Evaluated)
		}
		_, achieved, err := fw.CompressToRatio(test, target)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		// The library path and a served artifact wrapping the same regressor
		// share one predictor, so their bounds agree bit for bit.
		ratios := []float64{target / 2, target, target * 2}
		lib, err := fw.PredictErrorBounds(test, ratios)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		art := &model.Artifact{Codec: "szx", Backend: backend, Schema: model.CanonicalSchema(), Regressor: fw.model}
		served, err := art.PredictErrorBounds(test, ratios, features.ParallelOptions{})
		if err != nil {
			t.Fatalf("%s: artifact path: %v", backend, err)
		}
		for i := range ratios {
			if math.Float64bits(lib[i]) != math.Float64bits(served[i]) {
				t.Fatalf("%s: ratio %g: library %v != artifact %v", backend, ratios[i], lib[i], served[i])
			}
		}
		if a := stats.PctError(achieved, target); a > 80 {
			t.Errorf("%s: achieved %g for target %g (α=%.0f%%)", backend, achieved, target, a)
		}
	}
}

// TestUnknownModelRejected: a tag outside the model table (including the
// retired knn backend) is refused by Collect before it extracts a feature
// or runs the compressor for calibration, on every path that collects.
func TestUnknownModelRejected(t *testing.T) {
	fields := trainFields(t)[:1]
	extractions := obs.Default.Counter("features_extract_calls_total")
	for _, tag := range []string{"svm", "knn"} {
		cfg := fastConfig()
		cfg.Model = tag
		fw, err := New("sz3", cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := extractions.Value()
		cs, err := fw.Collect(fields)
		if err == nil {
			t.Fatalf("%s: Collect accepted the model tag", tag)
		}
		if _, _, err := fw.Refine(fields); err == nil {
			t.Fatalf("%s: Refine accepted the model tag", tag)
		}
		if n := extractions.Value() - before; n != 0 || cs.FullCompressorRuns != 0 || fw.TrainingSize() != 0 {
			t.Fatalf("%s: refused collection still ran %d extractions, %d calibration runs, %d samples",
				tag, n, cs.FullCompressorRuns, fw.TrainingSize())
		}
		if _, err := fw.Train(); err == nil {
			t.Fatalf("%s: unknown model accepted", tag)
		}
	}
}

// TestFeedbackLoop verifies the on-the-fly improvement loop: outcomes are
// recorded, and the model refits after FeedbackEvery observations.
func TestFeedbackLoop(t *testing.T) {
	cfg := fastConfig()
	cfg.Feedback = true
	cfg.FeedbackEvery = 3
	fw, err := New("szx", cfg)
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
	sizeBefore := fw.TrainingSize()
	test := fields[2]
	extractions := obs.Default.Counter("features_extract_calls_total")
	extractedBefore := extractions.Value()
	for i := 0; i < 4; i++ {
		if _, _, err := fw.CompressToRatio(test, 5+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// One extraction per request: the vector that fed the prediction is the
	// one ObserveOutcome records.
	if n := extractions.Value() - extractedBefore; n != 4 {
		t.Fatalf("4 feedback requests ran %d feature extractions, want 4", n)
	}
	if got := fw.TrainingSize(); got != sizeBefore+4 {
		t.Fatalf("feedback recorded %d samples, want 4", got-sizeBefore)
	}
	// After the refit the model must still predict sensibly.
	_, achieved, err := fw.CompressToRatio(test, 5)
	if err != nil {
		t.Fatal(err)
	}
	if achieved <= 0 {
		t.Fatal("degenerate post-feedback prediction")
	}
}

// TestFeedbackImprovesOnNewRegime trains on one kind of data, then feeds
// back outcomes from a different regime; predictions on that regime should
// not get worse and typically improve.
func TestFeedbackImprovesOnNewRegime(t *testing.T) {
	cfg := fastConfig()
	cfg.Feedback = true
	cfg.FeedbackEvery = 4
	fw, err := New("szx", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Train only on smooth Miranda fields.
	if _, err := fw.Collect(trainFields(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
	// New regime: NYX log-normal data.
	nyx, err := dataset.Generate("nyx", "baryon_density", dataset.Options{Nx: 32, Ny: 32, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := fw.Codec().Compress(nyx, compressor.AbsBound(nyx, 1e-2))
	if err != nil {
		t.Fatal(err)
	}
	target := compressor.Ratio(nyx, probe)
	alpha := func() float64 {
		_, achieved, err := fw.CompressToRatio(nyx, target)
		if err != nil {
			t.Fatal(err)
		}
		return stats.PctError(achieved, target)
	}
	before := alpha()
	// Feed several outcomes from the new regime (each call records one).
	for i := 0; i < 12; i++ {
		alpha()
	}
	after := alpha()
	if after > before+10 {
		t.Fatalf("feedback made things worse: %.1f%% -> %.1f%%", before, after)
	}
}

func TestObserveOutcomeValidation(t *testing.T) {
	fw, err := New("szx", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.ObserveOutcome(features.Vector{}, 0, 1e-3); err == nil {
		t.Fatal("zero ratio accepted")
	}
	if err := fw.ObserveOutcome(features.Vector{}, 10, 0); err == nil {
		t.Fatal("zero bound accepted")
	}
}

// TestRefitWithoutTrainedModelDefers ensures feedback before Train only
// accumulates samples.
func TestRefitWithoutTrainedModelDefers(t *testing.T) {
	cfg := fastConfig()
	cfg.FeedbackEvery = 1
	fw, err := New("szx", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.ObserveOutcome(features.Vector{Mean: 1, Range: 1}, 10, 1e-3); err != nil {
		t.Fatal(err)
	}
	if fw.Trained() {
		t.Fatal("feedback alone should not produce a model")
	}
}

// countingCodec counts the Compress calls made through it.
type countingCodec struct {
	compressor.Codec
	compresses int
}

func (c *countingCodec) Compress(f *field.Field, eb float64) ([]byte, error) {
	c.compresses++
	return c.Codec.Compress(f, eb)
}

// TestCompressToRatioRunsCodecOnce: a fixed-ratio request runs the
// compressor exactly once — one predicted bound, one run — with Feedback
// off and on, the request whose outcome triggers a refit included.
func TestCompressToRatioRunsCodecOnce(t *testing.T) {
	fields := trainFields(t)
	for _, feedback := range []bool{false, true} {
		cfg := fastConfig()
		cfg.Feedback = feedback
		cfg.FeedbackEvery = 2
		codec := &countingCodec{Codec: szx.New()}
		sur, err := codecs.SurrogateByName("szx")
		if err != nil {
			t.Fatal(err)
		}
		fw := NewWith(codec, sur, cfg)
		if _, err := fw.Collect(fields[:2]); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Train(); err != nil {
			t.Fatal(err)
		}
		refits := 0
		for i := 0; i < 4; i++ {
			before, runs := fw.model, codec.compresses
			if _, _, err := fw.CompressToRatio(fields[2], 5+float64(i)); err != nil {
				t.Fatal(err)
			}
			if fw.model != before {
				refits++
			}
			if n := codec.compresses - runs; n != 1 {
				t.Fatalf("feedback=%v request %d: %d compressor runs, want 1", feedback, i, n)
			}
		}
		if want := map[bool]int{false: 0, true: 2}[feedback]; refits != want {
			t.Fatalf("feedback=%v: %d refits over 4 requests, want %d", feedback, refits, want)
		}
	}
}
