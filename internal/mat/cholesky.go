package mat

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization encounters
// a non-positive pivot.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L*Lᵀ. It backs the Hessian solves in the INFL baseline
// and the ridge solves in the closed-form baseline.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle (full storage for simplicity)
}

// NewCholesky factorizes the symmetric positive definite matrix a.
// Only the lower triangle of a is read.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, errors.New("mat: Cholesky requires a square matrix")
	}
	n := a.rows
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrNotPositiveDefinite
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// Solve solves A*x = b and returns x. b is not modified.
func (c *Cholesky) Solve(b []float64) []float64 {
	if len(b) != c.n {
		panic("mat: Cholesky.Solve length mismatch")
	}
	n := c.n
	x := CloneVec(b)
	// Forward solve L*y = b.
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= c.l[i*n+k] * x[k]
		}
		x[i] = s / c.l[i*n+i]
	}
	// Back solve Lᵀ*x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= c.l[k*n+i] * x[k]
		}
		x[i] = s / c.l[i*n+i]
	}
	return x
}
