package bayesopt

import (
	"errors"
	"math"
)

// The Gaussian process's dense linear algebra: Cholesky factorization and
// triangular solves for symmetric positive-definite systems.

// errNotPD is returned when a matrix is not positive definite.
var errNotPD = errors.New("bayesopt: matrix not positive definite")

// cholesky computes the lower-triangular L with L Lᵀ = A for a symmetric
// positive-definite A (given as rows). A is not modified.
func cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		if len(a[i]) != n {
			return nil, errors.New("bayesopt: non-square matrix")
		}
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, errNotPD
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// solveChol solves A x = b given the Cholesky factor L of A: L z = b
// forward, then Lᵀ x = z backward.
func solveChol(l [][]float64, b []float64) []float64 {
	z := forwardSolve(l, b)
	x := make([]float64, len(l))
	for i := len(l) - 1; i >= 0; i-- {
		sum := z[i]
		for k := i + 1; k < len(l); k++ {
			sum -= l[k][i] * x[k]
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// forwardSolve solves L z = b for lower-triangular L.
func forwardSolve(l [][]float64, b []float64) []float64 {
	z := make([]float64, len(l))
	for i := range z {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * z[k]
		}
		z[i] = sum / l[i][i]
	}
	return z
}

// dot returns the inner product of two equal-length vectors.
func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
