package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"carol/internal/compressor"
	"carol/internal/trainset"
)

// TestCompressToRatioKeepsModelBound: CompressToRatio compresses once at
// the bound the model predicts, also above 0.5, the top of the interval
// fraz searches (a seed is clamped into it only where the search may step
// from it; trainset.EBFromTarget lets predictions reach 1). A field holding
// ±Inf is still compressor.ErrNonFinite.
func TestCompressToRatioKeepsModelBound(t *testing.T) {
	cfg := fastConfig()
	cfg.ErrorBounds = trainset.GeometricBounds(0.55, 0.9, 6)
	fw, err := New("szx", cfg)
	if err != nil {
		t.Fatal(err)
	}
	fields := trainFields(t)
	if _, err := fw.Collect(fields); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
	f, target := fields[0], 20.0
	rel, err := fw.PredictErrorBound(f, target)
	if err != nil {
		t.Fatal(err)
	}
	if rel <= 0.5 {
		t.Fatalf("predicted bound %g: the test needs one above 0.5", rel)
	}
	stream, achieved, err := fw.CompressToRatio(f, target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.Codec().Compress(f, rel*f.ValueRange())
	if err != nil {
		t.Fatal(err)
	}
	clamped, err := fw.Codec().Compress(f, 0.5*f.ValueRange())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, clamped) {
		t.Fatal("the streams at the predicted bound and at 0.5 are equal: the test cannot tell them apart")
	}
	if !bytes.Equal(stream, want) || achieved != compressor.Ratio(f, want) {
		t.Errorf("CompressToRatio's stream (%d bytes, ratio %g) is not the one compressed at the predicted bound %g",
			len(stream), achieved, rel)
	}

	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		g := f.Clone()
		g.Data[len(g.Data)/2] = float32(inf)
		if _, _, err := fw.CompressToRatio(g, target); !errors.Is(err, compressor.ErrNonFinite) {
			t.Errorf("a field holding %g: error %v, want compressor.ErrNonFinite", inf, err)
		}
	}
}
