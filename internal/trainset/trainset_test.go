package trainset

import (
	"math"
	"testing"

	"carol/internal/features"
)

func TestAddValidation(t *testing.T) {
	var s Set
	if err := s.Add(Sample{Ratio: 0, RelEB: 1e-3}); err == nil {
		t.Fatal("zero ratio accepted")
	}
	if err := s.Add(Sample{Ratio: 10, RelEB: 0}); err == nil {
		t.Fatal("zero bound accepted")
	}
	if err := s.Add(Sample{Ratio: 10, RelEB: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestAddRejectsNonFinite sets one slot of an otherwise good sample to
// each non-finite value: Add must refuse every one.
func TestAddRejectsNonFinite(t *testing.T) {
	good := Sample{Features: features.Vector{Mean: 1, Range: 2, MND: 3, MLD: 4, MSD: 5}, Ratio: 10, RelEB: 1e-3}
	for _, row := range []struct {
		slot string
		set  func(*Sample, float64)
	}{
		{"mean", func(s *Sample, v float64) { s.Features.Mean = v }},
		{"range", func(s *Sample, v float64) { s.Features.Range = v }},
		{"mnd", func(s *Sample, v float64) { s.Features.MND = v }},
		{"mld", func(s *Sample, v float64) { s.Features.MLD = v }},
		{"msd", func(s *Sample, v float64) { s.Features.MSD = v }},
		{"ratio", func(s *Sample, v float64) { s.Ratio = v }},
		{"relEB", func(s *Sample, v float64) { s.RelEB = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			sm := good
			row.set(&sm, v)
			var s Set
			if err := s.Add(sm); err == nil {
				t.Errorf("%s = %v: Add accepted it", row.slot, v)
			}
		}
	}
	var s Set
	if err := s.Add(good); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixShapeAndScaling(t *testing.T) {
	var s Set
	v := features.Vector{Mean: 1, Range: 2, MND: 3, MLD: 4, MSD: 5}
	if err := s.Add(Sample{Features: v, Ratio: 100, RelEB: 1e-3}); err != nil {
		t.Fatal(err)
	}
	X, y := s.Matrix()
	if len(X) != 1 || len(X[0]) != InputDim || len(y) != 1 {
		t.Fatalf("matrix shape %dx%d / %d", len(X), len(X[0]), len(y))
	}
	if X[0][5] != 2 { // log10(100)
		t.Fatalf("log ratio = %g", X[0][5])
	}
	if y[0] != -3 { // log10(1e-3)
		t.Fatalf("target = %g", y[0])
	}
}

func TestRowMatchesMatrix(t *testing.T) {
	v := features.Vector{Mean: 1, Range: 2, MND: 3, MLD: 4, MSD: 5}
	row := Row(v, 100)
	if len(row) != InputDim || row[5] != 2 || row[0] != 1 {
		t.Fatalf("Row = %v", row)
	}
}

func TestEBFromTargetClamps(t *testing.T) {
	if got := EBFromTarget(-3); math.Abs(got-1e-3) > 1e-15 {
		t.Fatalf("EBFromTarget(-3) = %g", got)
	}
	if EBFromTarget(-100) != 1e-12 {
		t.Fatal("low clamp missing")
	}
	if EBFromTarget(5) != 1 {
		t.Fatal("high clamp missing")
	}
}

func TestMerge(t *testing.T) {
	var a, b Set
	if err := a.Add(Sample{Ratio: 1, RelEB: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(Sample{Ratio: 2, RelEB: 0.5}); err != nil {
		t.Fatal(err)
	}
	a.Merge(&b)
	if a.Len() != 2 {
		t.Fatalf("merged Len = %d", a.Len())
	}
}

func TestGeometricBounds(t *testing.T) {
	b := GeometricBounds(1e-4, 1e-1, 35)
	if len(b) != 35 {
		t.Fatalf("len = %d", len(b))
	}
	if math.Abs(b[0]-1e-4) > 1e-15 || math.Abs(b[34]-1e-1) > 1e-12 {
		t.Fatalf("endpoints %g, %g", b[0], b[34])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatal("not increasing")
		}
	}
	if got := GeometricBounds(1e-3, 1e-1, 1); len(got) != 1 || got[0] != 1e-3 {
		t.Fatalf("degenerate case: %v", got)
	}
}
