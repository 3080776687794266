// Package interp implements the 1-D piecewise linear interpolation used to
// linearize the non-linear component of the logistic-regression update rule
// (Sec 4.2 of the paper).
//
// The function being linearized is f(x) = 1 − 1/(1+e^{−x}); at iteration t,
// f(yᵢ·w⁽ᵗ⁾ᵀxᵢ) is replaced by s(x) = a·x + b where (a, b) are the secant
// coefficients of the sub-interval containing x. The paper partitions
// [−20, 20] into 10⁶ equal sub-intervals and treats s as constant outside
// the domain (f is within ~2·10⁻⁹ of its asymptote there). Lemma 9 gives the
// approximation bounds |f−s| = O((Δx)²), |f′−s′| = O(Δx).
package interp

import (
	"errors"
	"math"
	"sync"

	"repro/internal/par"
)

// Sigmoid returns the standard logistic sigmoid 1/(1+e^{−x}).
func Sigmoid(x float64) float64 {
	// Numerically stable branches.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// F is the paper's non-linear component f(x) = 1 − 1/(1+e^{−x}) = σ(−x).
func F(x float64) float64 { return Sigmoid(-x) }

// FPrime is f′(x) = −σ(x)·σ(−x) (always negative).
func FPrime(x float64) float64 { return -Sigmoid(x) * Sigmoid(-x) }

// Linearizer holds a piecewise-linear interpolant of an arbitrary scalar
// function on [−Bound, Bound] with uniformly spaced breakpoints.
type Linearizer struct {
	bound float64
	n     int
	inv   float64 // n / (2*bound), converts x to a cell index
	// Per-cell secant coefficients: s(x) = a[c]*x + b[c].
	a, b []float64
	// Constant extensions outside the domain.
	lo, hi float64
}

// DefaultBound and DefaultCells mirror the paper's configuration
// (a = 20, 10⁶ equal sub-intervals).
const (
	DefaultBound = 20.0
	DefaultCells = 1_000_000
)

// ErrBadConfig reports an invalid linearizer configuration.
var ErrBadConfig = errors.New("interp: bound and cells must be positive")

// NewLinearizer tabulates fn on [−bound, bound] with cells sub-intervals,
// filling disjoint cell ranges on the par workers; fn must be safe for
// concurrent use. Cell c's left breakpoint is −bound + c·h, the same value
// the serial recurrence carries over from cell c−1, so the table is
// bitwise-identical at any worker count.
func NewLinearizer(fn func(float64) float64, bound float64, cells int) (*Linearizer, error) {
	if bound <= 0 || cells <= 0 {
		return nil, ErrBadConfig
	}
	l := &Linearizer{
		bound: bound,
		n:     cells,
		inv:   float64(cells) / (2 * bound),
		a:     make([]float64, cells),
		b:     make([]float64, cells),
		lo:    fn(-bound),
		hi:    fn(bound),
	}
	h := 2 * bound / float64(cells)
	par.For(cells, par.Grain(cellWork), func(lo, hi int) {
		prevX := -bound + float64(lo)*h
		prevF := fn(prevX)
		for c := lo; c < hi; c++ {
			x1 := -bound + float64(c+1)*h
			f1 := fn(x1)
			a := (f1 - prevF) / h
			l.a[c] = a
			l.b[c] = prevF - a*prevX
			prevX, prevF = x1, f1
		}
	})
	return l, nil
}

// cellWork is the par work estimate of one cell: one exp-based evaluation
// of fn and two divisions.
const cellWork = 32

// sigmoidGrid is the process-wide default grid, built on first use.
var sigmoidGrid = sync.OnceValue(buildSigmoidGrid)

func buildSigmoidGrid() *Linearizer {
	l, err := NewLinearizer(F, DefaultBound, DefaultCells)
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return l
}

// NewSigmoidLinearizer returns the paper's default linearizer of F. The
// grid does not depend on any data, so it is built once per process (on the
// first call) and every caller shares it; a Linearizer is read-only after
// construction, so the shared grid is safe for concurrent use.
func NewSigmoidLinearizer() *Linearizer { return sigmoidGrid() }

// Delta returns the sub-interval width Δx.
func (l *Linearizer) Delta() float64 { return 2 * l.bound / float64(l.n) }

// Coefficients returns the linear coefficients (a, b) such that the
// interpolant at x is a·x + b. Outside [−bound, bound] the interpolant is the
// constant boundary value (a = 0), matching the paper's convention.
func (l *Linearizer) Coefficients(x float64) (a, b float64) {
	if x < -l.bound {
		return 0, l.lo
	}
	if x >= l.bound {
		return 0, l.hi
	}
	c := int((x + l.bound) * l.inv)
	if c >= l.n { // guard x == bound-ulp rounding
		c = l.n - 1
	}
	return l.a[c], l.b[c]
}

// Eval returns the interpolant value s(x).
func (l *Linearizer) Eval(x float64) float64 {
	a, b := l.Coefficients(x)
	return a*x + b
}

// MaxAbsError returns a bound on |f−s| over the tabulated domain using
// Lemma 9: (Δx)²·max|f″|/8. For f(x) = σ(−x), max|f″| = 1/(6√3) ≈ 0.0962.
func (l *Linearizer) MaxAbsError() float64 {
	const maxF2 = 0.09622504486493764 // max |f''| of the sigmoid family
	dx := l.Delta()
	return dx * dx * maxF2 / 8
}

// FootprintBytes estimates the memory the coefficient tables occupy.
func (l *Linearizer) FootprintBytes() int64 {
	return int64(len(l.a))*8 + int64(len(l.b))*8
}
