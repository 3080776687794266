package mat

import (
	"errors"
	"math"
)

// QR holds a Householder QR factorization A = Q·R of an n×m matrix with
// n ≥ m. It solves least-squares problems directly, without forming normal
// equations that are too ill-conditioned for Cholesky (tiny λ with nearly
// collinear features).
type QR struct {
	n, m int
	// qr stores R in the upper triangle and the Householder vectors below.
	qr    []float64
	rdiag []float64
}

// NewQR factorizes a (which is not modified).
func NewQR(a *Dense) (*QR, error) {
	n, m := a.Dims()
	if n < m {
		return nil, errors.New("mat: QR requires rows >= cols")
	}
	qr := make([]float64, n*m)
	copy(qr, a.Data())
	rdiag := make([]float64, m)
	for k := 0; k < m; k++ {
		// Householder reflection for column k.
		var nrm float64
		for i := k; i < n; i++ {
			nrm = math.Hypot(nrm, qr[i*m+k])
		}
		if nrm == 0 {
			return nil, ErrSingular
		}
		if qr[k*m+k] < 0 {
			nrm = -nrm
		}
		for i := k; i < n; i++ {
			qr[i*m+k] /= nrm
		}
		qr[k*m+k] += 1
		for j := k + 1; j < m; j++ {
			var s float64
			for i := k; i < n; i++ {
				s += qr[i*m+k] * qr[i*m+j]
			}
			s = -s / qr[k*m+k]
			for i := k; i < n; i++ {
				qr[i*m+j] += s * qr[i*m+k]
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{n: n, m: m, qr: qr, rdiag: rdiag}, nil
}

// SolveLeastSquares returns argmin_x ‖A·x − b‖₂ for len(b) == n.
func (f *QR) SolveLeastSquares(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, errors.New("mat: QR solve length mismatch")
	}
	n, m := f.n, f.m
	y := CloneVec(b)
	// Apply Householder reflections: y ← Qᵀ·b.
	for k := 0; k < m; k++ {
		var s float64
		for i := k; i < n; i++ {
			s += f.qr[i*m+k] * y[i]
		}
		s = -s / f.qr[k*m+k]
		for i := k; i < n; i++ {
			y[i] += s * f.qr[i*m+k]
		}
	}
	// Back substitution R·x = y[:m].
	x := make([]float64, m)
	for i := m - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < m; j++ {
			s -= f.qr[i*m+j] * x[j]
		}
		if f.rdiag[i] == 0 {
			return nil, ErrSingular
		}
		x[i] = s / f.rdiag[i]
	}
	return x, nil
}

// R returns the m×m upper-triangular factor.
func (f *QR) R() *Dense {
	r := NewDense(f.m, f.m)
	for i := 0; i < f.m; i++ {
		r.Set(i, i, f.rdiag[i])
		for j := i + 1; j < f.m; j++ {
			r.Set(i, j, f.qr[i*f.m+j])
		}
	}
	return r
}
