package bayesopt

import (
	"math"
	"testing"
	"testing/quick"

	"carol/internal/xrand"
)

func TestCholeskyKnown(t *testing.T) {
	a := [][]float64{
		{4, 2, 2},
		{2, 5, 3},
		{2, 3, 6},
	}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Verify L Lᵀ = A.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += l[i][k] * l[j][k]
			}
			if math.Abs(s-a[i][j]) > 1e-12 {
				t.Fatalf("(LLᵀ)[%d][%d] = %g, want %g", i, j, s, a[i][j])
			}
		}
	}
	// Upper part of L must be zero.
	if l[0][1] != 0 || l[0][2] != 0 || l[1][2] != 0 {
		t.Fatal("L not lower triangular")
	}
}

func TestCholeskyRejectsNonPD(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 1}, // eigenvalues 3, -1
	}
	if _, err := cholesky(a); err != errNotPD {
		t.Fatalf("err = %v, want errNotPD", err)
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := cholesky([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestSolveChol(t *testing.T) {
	a := [][]float64{
		{4, 2, 2},
		{2, 5, 3},
		{2, 3, 6},
	}
	want := []float64{1, -2, 0.5}
	b := make([]float64, 3)
	for i := range b {
		for j := range want {
			b[i] += a[i][j] * want[j]
		}
	}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := solveChol(l, b)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestForwardSolve(t *testing.T) {
	l := [][]float64{
		{2, 0},
		{1, 3},
	}
	// L z = [4, 7] -> z = [2, 5/3].
	z := forwardSolve(l, []float64{4, 7})
	if math.Abs(z[0]-2) > 1e-12 || math.Abs(z[1]-5.0/3) > 1e-12 {
		t.Fatalf("z = %v", z)
	}
}

func TestDot(t *testing.T) {
	if dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot broken")
	}
}

// Property: for random SPD matrices (A = B Bᵀ + εI), Cholesky+solve
// reproduces a known solution.
func TestQuickSolveRandomSPD(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.Intn(8) + 2
		bmat := make([][]float64, n)
		for i := range bmat {
			bmat[i] = make([]float64, n)
			for j := range bmat[i] {
				bmat[i][j] = rng.Norm()
			}
		}
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				for k := 0; k < n; k++ {
					a[i][j] += bmat[i][k] * bmat[j][k]
				}
				if i == j {
					a[i][j] += 0.5
				}
			}
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.Range(-3, 3)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			for j := range want {
				rhs[i] += a[i][j] * want[j]
			}
		}
		l, err := cholesky(a)
		if err != nil {
			return false
		}
		x := solveChol(l, rhs)
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
