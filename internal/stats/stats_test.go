package stats

import (
	"math"
	"testing"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Count() != 0 || a.Mean() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatal("zero value not clean")
	}
	for _, v := range []float64{3, -1, 7, 2} {
		a.Add(v)
	}
	if a.Count() != 4 {
		t.Fatalf("Count = %d", a.Count())
	}
	if a.Mean() != 2.75 {
		t.Fatalf("Mean = %g", a.Mean())
	}
	if a.Min() != -1 || a.Max() != 7 {
		t.Fatalf("Min/Max = %g/%g", a.Min(), a.Max())
	}
	if a.Sum() != 11 {
		t.Fatalf("Sum = %g", a.Sum())
	}
}

func TestPctError(t *testing.T) {
	cases := []struct{ est, truth, want float64 }{
		{110, 100, 10},
		{90, 100, 10},
		{100, 100, 0},
		{5, 0, 0},
		{-50, -100, 50},
	}
	for _, c := range cases {
		if got := PctError(c.est, c.truth); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PctError(%g, %g) = %g, want %g", c.est, c.truth, got, c.want)
		}
	}
}

func TestEstimationError(t *testing.T) {
	est := []float64{110, 90, 100}
	truth := []float64{100, 100, 100}
	if got := EstimationError(est, truth); math.Abs(got-20.0/3) > 1e-12 {
		t.Fatalf("α = %g", got)
	}
	if EstimationError(est, truth[:2]) != 0 {
		t.Fatal("length mismatch not rejected")
	}
	if EstimationError(nil, nil) != 0 {
		t.Fatal("empty input")
	}
}
