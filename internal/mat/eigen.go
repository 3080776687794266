package mat

import (
	"errors"
	"math"
	"sort"

	"repro/internal/par"
)

// Eigen holds the eigendecomposition of a real symmetric matrix
// A = Q * diag(Values) * Qᵀ with Q orthogonal and eigenvalues sorted in
// descending order. PrIU-opt (Sec 5.2/5.4 of the paper) relies on this
// decomposition of M = XᵀX (linear regression) and of the stabilized
// provenance matrix C (logistic regression).
type Eigen struct {
	// Values are the eigenvalues in descending order.
	Values []float64
	// Q has the corresponding eigenvectors as columns.
	Q *Dense
	// sweeps is the number of Jacobi sweeps the decomposition ran.
	sweeps int
}

// jacobiMaxSweeps bounds the cyclic-Jacobi iteration; symmetric matrices of
// the sizes used here (feature-space dimension) converge in well under this
// many sweeps.
const jacobiMaxSweeps = 64

// NewEigenSym computes the eigendecomposition of the symmetric matrix a using
// a tournament-ordered parallel cyclic Jacobi method. Only symmetry to within
// round-off is assumed.
//
// Each sweep is organized as the N−1 rounds of a round-robin tournament:
// within a round every index appears in exactly one rotation pair, so the
// pairs' rotations act on disjoint coordinates and commute. All rotation
// angles for a round are computed from the round-start matrix (a rotation's
// defining entries (p,p), (p,q), (q,q) are untouched by the other pairs of
// the round, so the annihilation stays exact), then applied in one parallel
// pass per round. The column rotations W ← W·G and Q ← Q·G mix elements
// within a row, so each row takes them on its own, and a pair's row
// rotation W ← Gᵀ·W needs only its own two rows: a unit of work is one
// active pair's two W rows (column rotations, then the row rotation) or one
// other row of W or Q. Workers own whole rows, so no two write the same
// cache line, and every element gets the same arithmetic wherever the loop
// splits, so the result is bitwise identical at any worker count. The same
// schedule runs serially on a single worker, so there is no separate serial
// algorithm to diverge from.
//
// Convergence is tested once per sweep on the off-diagonal norm rescanned
// from the matrix, an O(n²) pass against the sweep's O(n³) rotations.
func NewEigenSym(a *Dense) (*Eigen, error) {
	if a.rows != a.cols {
		return nil, errors.New("mat: NewEigenSym requires a square matrix")
	}
	n := a.rows
	w := a.Clone()
	q := Identity(n)
	if n == 1 {
		return &Eigen{Values: []float64{w.At(0, 0)}, Q: q}, nil
	}
	// Scale-aware stopping threshold.
	var fro float64
	for _, v := range w.data {
		fro += v * v
	}
	tol := 1e-28 * (fro + 1)

	// Round-robin tournament state: player 0 stays fixed, the rest rotate one
	// slot per round; odd n adds a bye slot.
	nPlayers := n
	if nPlayers%2 == 1 {
		nPlayers++
	}
	half := nPlayers / 2
	rounds := nPlayers - 1
	perm := make([]int, nPlayers)
	for i := range perm {
		perm[i] = i
	}
	pp := make([]int, half)
	pq := make([]int, half)
	cs := make([]float64, half)
	sn := make([]float64, half)
	paired := make([]bool, n)
	lone := make([]int, 0, n)
	// A unit is one or three row passes of ~3n flops each.
	grain := parGrain(6 * n)

	sweep := 0
	for ; sweep < jacobiMaxSweeps && offUpper(w) > tol; sweep++ {
		for r := 0; r < rounds; r++ {
			np := 0
			for i := 0; i < half; i++ {
				p, qi := perm[i], perm[nPlayers-1-i]
				if p >= n || qi >= n {
					continue // bye slot on odd n
				}
				if p > qi {
					p, qi = qi, p
				}
				apq := w.At(p, qi)
				if apq == 0 {
					continue
				}
				app, aqq := w.At(p, p), w.At(qi, qi)
				// Compute the Jacobi rotation that annihilates w[p][q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e100 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				pp[np], pq[np], cs[np], sn[np] = p, qi, c, s
				np++
			}
			if np > 0 {
				// Units: each active pair's two W rows (column rotations,
				// then their row rotation), each other W row, each Q row.
				for t := 0; t < np; t++ {
					paired[pp[t]], paired[pq[t]] = true, true
				}
				lone = lone[:0]
				for k, in := range paired {
					if !in {
						lone = append(lone, k)
					}
					paired[k] = false
				}
				nw := np + len(lone)
				par.For(nw+n, grain, func(lo, hi int) {
					for u := lo; u < hi; u++ {
						switch {
						case u < np:
							p, r := pp[u], pq[u]
							rotatePairs(w.data[p*n:(p+1)*n], pp[:np], pq[:np], cs, sn)
							rotatePairs(w.data[r*n:(r+1)*n], pp[:np], pq[:np], cs, sn)
							rotateRows(w, p, r, cs[u], sn[u])
						case u < nw:
							k := lone[u-np]
							rotatePairs(w.data[k*n:(k+1)*n], pp[:np], pq[:np], cs, sn)
						default:
							k := u - nw
							rotatePairs(q.data[k*n:(k+1)*n], pp[:np], pq[:np], cs, sn)
						}
					}
				})
			}
			rotateSchedule(perm)
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sortedVals := make([]float64, n)
	sortedQ := NewDense(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedQ.Set(r, newCol, q.At(r, oldCol))
		}
	}
	return &Eigen{Values: sortedVals, Q: sortedQ, sweeps: sweep}, nil
}

// offUpper returns the sum of squares of the strictly upper triangle.
func offUpper(w *Dense) float64 {
	n := w.cols
	var s float64
	for i := 0; i < n-1; i++ {
		ri := w.data[i*n+i+1 : (i+1)*n]
		for _, v := range ri {
			s += v * v
		}
	}
	return s
}

// rotatePairs applies the round's column rotations G(p,r,θ) to one matrix
// row: for each pair t, elements p[t] and r[t] of row are mixed. The pairs
// are disjoint, so their order does not matter.
func rotatePairs(row []float64, p, r []int, c, s []float64) {
	for t, pt := range p {
		rt := r[t]
		akp, akr := row[pt], row[rt]
		row[pt] = c[t]*akp - s[t]*akr
		row[rt] = s[t]*akp + c[t]*akr
	}
}

// rotateRows applies the plane rotation on the left: rows p and r of m are
// mixed, all other elements untouched.
func rotateRows(m *Dense, p, r int, c, s float64) {
	rp := m.data[p*m.cols : (p+1)*m.cols]
	rr := m.data[r*m.cols : (r+1)*m.cols]
	for k, apk := range rp {
		ark := rr[k]
		rp[k] = c*apk - s*ark
		rr[k] = s*apk + c*ark
	}
}

// rotateSchedule advances the round-robin tournament one round: slot 0 is
// fixed, slots 1..N−1 rotate by one.
func rotateSchedule(perm []int) {
	last := perm[len(perm)-1]
	copy(perm[2:], perm[1:len(perm)-1])
	perm[1] = last
}

// Reconstruct returns Q*diag(Values)*Qᵀ, primarily for testing.
func (e *Eigen) Reconstruct() *Dense {
	n := len(e.Values)
	qd := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qd.Set(i, j, e.Q.At(i, j)*e.Values[j])
		}
	}
	return qd.Mul(e.Q.T())
}

// UpdateValues implements the incremental eigenvalue update of Ning et al.
// used by PrIU-opt (Eq 18): when M' = M + delta is a small perturbation and
// the eigenvectors of M' are approximated by those of M, the updated
// eigenvalues are the diagonal of Qᵀ*M'*Q, i.e. Values[i] + (Qᵀ*delta*Q)[i][i].
// delta must be n×n. The receiver is not modified; updated values are
// returned in the eigenbasis order of e.
func (e *Eigen) UpdateValues(delta *Dense) []float64 {
	n := len(e.Values)
	if delta.rows != n || delta.cols != n {
		panic("mat: UpdateValues dimension mismatch")
	}
	out := make([]float64, n)
	// Each eigenvalue update is independent; chunks carry their own scratch.
	par.For(n, parGrain(2*n*n), func(lo, hi int) {
		tmp := make([]float64, n)
		col := make([]float64, n)
		for i := lo; i < hi; i++ {
			// col = i-th eigenvector.
			for r := 0; r < n; r++ {
				col[r] = e.Q.At(r, i)
			}
			delta.MulVecInto(tmp, col)
			out[i] = e.Values[i] + Dot(col, tmp)
		}
	})
	return out
}

// UpdateValuesGram returns the incremental eigenvalue update for a signed
// Gram perturbation delta = sign·ΔZᵀΔZ: Values[i] + sign·‖ΔZ·qᵢ‖². It costs
// O(k·n²) for a k×n ΔZ instead of forming the n×n delta.
func (e *Eigen) UpdateValuesGram(dz *Dense, sign float64) []float64 {
	n := len(e.Values)
	if dz.cols != n {
		panic("mat: UpdateValuesGram dimension mismatch")
	}
	out := make([]float64, n)
	par.For(n, parGrain(dz.rows*n), func(lo, hi int) {
		col := make([]float64, n)
		prod := make([]float64, dz.rows)
		for i := lo; i < hi; i++ {
			for r := 0; r < n; r++ {
				col[r] = e.Q.At(r, i)
			}
			dz.MulVecInto(prod, col)
			var s float64
			for _, v := range prod {
				s += v * v
			}
			out[i] = e.Values[i] + sign*s
		}
	})
	return out
}

// UpdateValuesLowRank is UpdateValues specialized to delta = -ΔXᵀΔX given the
// removed-row matrix ΔX (k×n). It costs O(k·n²) instead of forming the n×n
// delta: (Qᵀ(−ΔXᵀΔX)Q)[i][i] = −‖ΔX·qᵢ‖².
func (e *Eigen) UpdateValuesLowRank(dx *Dense) []float64 {
	return e.UpdateValuesGram(dx, -1)
}
