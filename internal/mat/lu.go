package mat

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization meets an (effectively)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// LU holds an LU factorization with partial pivoting: P*A = L*U. It
// provides general linear solves (the influence baseline's fallback when
// the Hessian is not positive definite).
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// NewLU factorizes the square matrix a with partial pivoting.
func NewLU(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		return nil, errors.New("mat: LU requires a square matrix")
	}
	n := a.rows
	lu := make([]float64, n*n)
	copy(lu, a.data)
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		mx := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[k*n+j] = lu[k*n+j], lu[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			f := lu[i*n+k] / pivot
			lu[i*n+k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= f * lu[k*n+j]
			}
		}
	}
	return &LU{n: n, lu: lu, piv: piv}, nil
}

// Solve solves A*x = b and returns x.
func (f *LU) Solve(b []float64) []float64 {
	if len(b) != f.n {
		panic("mat: LU.Solve length mismatch")
	}
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= f.lu[i*n+k] * x[k]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= f.lu[i*n+k] * x[k]
		}
		x[i] = s / f.lu[i*n+i]
	}
	return x
}
