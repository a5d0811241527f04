package carol

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/xrand"
)

func qualityPair(t *testing.T, rel float64) (*field.Field, *field.Field, float64) {
	t.Helper()
	f, err := dataset.Generate("miranda", "density", dataset.Options{Nx: 24, Ny: 24, Nz: 12})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := codecs.ByName("sz3")
	if err != nil {
		t.Fatal(err)
	}
	eb := compressor.AbsBound(f, rel)
	stream, err := codec.Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	g, err := codec.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	return f, g, eb
}

func TestQualityRealCompression(t *testing.T) {
	f, g, eb := qualityPair(t, 1e-3)
	r, err := AnalyzeQuality(f, g, eb)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != f.Len() {
		t.Fatalf("Samples = %d", r.Samples)
	}
	if !r.WithinBound() {
		t.Fatalf("bound violations reported: %d", r.Violations)
	}
	if r.MaxAbsErr > eb*1.01 || r.MaxAbsErr <= 0 {
		t.Fatalf("MaxAbsErr %g vs bound %g", r.MaxAbsErr, eb)
	}
	if r.PSNR < 40 || r.Pearson < 0.999 {
		t.Fatalf("fidelity metrics off: PSNR %g, Pearson %g", r.PSNR, r.Pearson)
	}
	total := 0
	for _, c := range r.Histogram {
		total += c
	}
	if total != r.Samples {
		t.Fatalf("histogram covers %d of %d samples", total, r.Samples)
	}
	if r.WorstSlab < 0 || r.WorstSlab >= f.Nz {
		t.Fatalf("worst slab %d", r.WorstSlab)
	}
}

func TestQualityViolationsDetected(t *testing.T) {
	f, g, eb := qualityPair(t, 1e-3)
	// Inject damage beyond the bound.
	g.Data[100] = f.Data[100] + float32(10*eb)
	g.Data[200] = f.Data[200] - float32(5*eb)
	r, err := AnalyzeQuality(f, g, eb)
	if err != nil {
		t.Fatal(err)
	}
	if r.Violations != 2 {
		t.Fatalf("Violations = %d, want 2", r.Violations)
	}
	if r.WithinBound() {
		t.Fatal("WithinBound despite damage")
	}
}

func TestQualityWorstSlabLocalization(t *testing.T) {
	f := field.New("f", 8, 8, 6)
	g := f.Clone()
	// Damage slab z=4.
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			g.Set(x, y, 4, 3.0)
		}
	}
	r, err := AnalyzeQuality(f, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.WorstSlab != 4 {
		t.Fatalf("WorstSlab = %d, want 4", r.WorstSlab)
	}
	if math.Abs(r.WorstSlabRMS-3) > 1e-9 {
		t.Fatalf("WorstSlabRMS = %g", r.WorstSlabRMS)
	}
}

func TestQualityStructuredResiduals(t *testing.T) {
	// Smooth (low-frequency) residuals have high lag-1 autocorrelation.
	f := field.New("f", 256, 1, 1)
	g := f.Clone()
	for i := range g.Data {
		g.Data[i] = float32(math.Sin(float64(i) / 20))
	}
	r, err := AnalyzeQuality(f, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.StructuredResiduals(0.5) {
		t.Fatalf("smooth residuals not flagged: autocorr %v", r.ResidualAutocorr)
	}
	// White-noise residuals must not be flagged.
	rng := xrand.New(3)
	for i := range g.Data {
		g.Data[i] = float32(rng.Norm())
	}
	r, err = AnalyzeQuality(f, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.StructuredResiduals(0.5) {
		t.Fatalf("noise residuals flagged: autocorr %v", r.ResidualAutocorr)
	}
}

func TestQualityIdenticalFields(t *testing.T) {
	f := field.New("f", 10, 10, 1)
	r, err := AnalyzeQuality(f, f.Clone(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxAbsErr != 0 || r.Violations != 0 || r.Histogram[0] != 100 {
		t.Fatalf("identical-field report: %+v", r)
	}
}

func TestQualityValidation(t *testing.T) {
	a := field.New("a", 4, 4, 1)
	b := field.New("b", 4, 5, 1)
	if _, err := AnalyzeQuality(a, b, 0); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestQualityWriteText(t *testing.T) {
	f, g, eb := qualityPair(t, 1e-2)
	r, err := AnalyzeQuality(f, g, eb)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"PSNR", "Pearson", "worst slab", "autocorr", "|err|"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
