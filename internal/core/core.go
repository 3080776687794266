// Package core implements PrIU and PrIU-opt, the provenance-based incremental
// model-update algorithms that are the paper's contribution (Sec 5).
//
// The workflow mirrors the paper's two phases:
//
//  1. Capture (offline, during the initial training over the full dataset):
//     per iteration t the sample-only contributions of the gradient update
//     rule are cached — Σ xᵢxᵢᵀ and Σ xᵢyᵢ for linear regression (Eq 13),
//     C⁽ᵗ⁾ = Σ aᵢ,⁽ᵗ⁾xᵢxᵢᵀ and D⁽ᵗ⁾ = Σ bᵢ,⁽ᵗ⁾yᵢxᵢ for the linearized
//     logistic rule (Eq 19). These are the provenance annotations with all
//     tokens still symbolic; matrices are optionally stored as truncated SVD
//     factors P⁽ᵗ⁾₁..r·Vᵀ⁽ᵗ⁾₁..r (Eq 14/20).
//
//  2. Update (online, when a subset R of samples is deleted): the deletion is
//     propagated by "zeroing out" the removed samples' tokens, which reduces
//     to subtracting their contributions ΔC⁽ᵗ⁾/ΔD⁽ᵗ⁾ from the caches and
//     re-running the cheap linear iteration — O(rm + ΔBm) per iteration
//     instead of O((B−ΔB)m) plus non-linear evaluations for retraining.
//     Every family's roll reads the removed members of each iteration from
//     one schedule-coordinate bitset (schedRemovals) and evaluates the ΔB·m
//     term with one kernel, foldRemoved: it takes the removed rows four at a
//     time, computing their four dots with w in one pass over w and adding
//     them to ΔC·w and ΔD in one fused pass, with the bits of one dot and
//     two axpys per row. A PrIU-opt what-if cursor keeps its removals in
//     that bitset, set at Apply through a row → (iteration, position) index,
//     and caches each iteration's ΔD, which does not depend on w: the kernel
//     re-sums it only for the iterations a new removal touched, so a commit
//     re-runs only the ΔC·w half of phase 1 everywhere else.
//
// PrIU-opt adds the small-feature-space optimizations of Sec 5.2/5.4:
// a GD approximation with eigendecomposition of M = XᵀX and incremental
// eigenvalue updates (linear regression), and early termination of
// provenance tracking at ts ≈ 0.7τ with the same eigen machinery applied to
// the stabilized C matrix (logistic regression).
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/par"
)

// Options configures provenance capture.
type Options struct {
	// Epsilon is the SVD coverage threshold ε of Theorems 6/8: the truncation
	// rank r is the smallest rank whose singular-value mass is ≥ (1−ε) of the
	// total. Zero means the default 0.01.
	Epsilon float64
	// Mode selects the cache representation.
	Mode CacheMode
	// EarlyTerminationFraction is PrIU-opt's ts/τ ratio for logistic
	// regression (Sec 5.4's rule of thumb is 0.7). Zero means 0.7.
	EarlyTerminationFraction float64
}

// CacheMode selects how per-iteration provenance matrices are stored.
type CacheMode int

const (
	// ModeAuto stores full m×m matrices when m ≤ B and SVD factors
	// otherwise, following the paper's guidance that SVD pays off when the
	// mini-batch is smaller than the feature space.
	ModeAuto CacheMode = iota
	// ModeFull always stores full matrices.
	ModeFull
	// ModeSVD always stores truncated SVD factors.
	ModeSVD
)

// String returns the mode name.
func (m CacheMode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeFull:
		return "full"
	case ModeSVD:
		return "svd"
	default:
		return fmt.Sprintf("CacheMode(%d)", int(m))
	}
}

const (
	defaultEpsilon       = 0.01
	defaultEarlyTermFrac = 0.7
)

func (o Options) epsilon() float64 {
	if o.Epsilon == 0 {
		return defaultEpsilon
	}
	return o.Epsilon
}

func (o Options) earlyTermFrac() float64 {
	if o.EarlyTerminationFraction == 0 {
		return defaultEarlyTermFrac
	}
	return o.EarlyTerminationFraction
}

func (o Options) validate() error {
	if o.Epsilon < 0 || o.Epsilon >= 1 {
		return fmt.Errorf("core: epsilon %v out of [0,1)", o.Epsilon)
	}
	if o.EarlyTerminationFraction < 0 || o.EarlyTerminationFraction > 1 {
		return fmt.Errorf("core: early-termination fraction %v out of [0,1]", o.EarlyTerminationFraction)
	}
	return nil
}

// ErrNoCapture is returned when an update is requested before capture.
var ErrNoCapture = errors.New("core: provenance has not been captured")

// iterCache stores one iteration's provenance matrix either as a full m×m
// matrix or as SVD factors P (m×r) and V (m×r) with the matrix = P·Vᵀ.
type iterCache struct {
	full *mat.Dense
	p, v *mat.Dense
}

// apply computes dst = cache·w for an m-vector w. scratch must have length r
// (ignored in full mode).
func (c *iterCache) apply(dst, w, scratch []float64) {
	if c.full != nil {
		c.full.MulVecInto(dst, w)
		return
	}
	r := c.p.Cols()
	vtw := scratch[:r]
	c.v.MulVecTInto(vtw, w)
	c.p.MulVecInto(dst, vtw)
}

// rank returns the stored rank (m for full mode).
func (c *iterCache) rank() int {
	if c.full != nil {
		return c.full.Rows()
	}
	return c.p.Cols()
}

// footprint returns the cache's storage in bytes.
func (c *iterCache) footprint() int64 {
	if c.full != nil {
		r, cc := c.full.Dims()
		return int64(r) * int64(cc) * 8
	}
	pr, pc := c.p.Dims()
	vr, vc := c.v.Dims()
	return int64(pr)*int64(pc)*8 + int64(vr)*int64(vc)*8
}

// weightedGramCache builds the iteration cache for Σᵢ wᵢ·xᵢxᵢᵀ over the given
// rows, where all weights share one sign (wᵢ ≡ 1 for linear regression,
// wᵢ = aᵢ ≤ 0 for linearized logistic, wᵢ = aᵢ ≥ 0 for multinomial).
//
// In SVD mode the factors are obtained from the small-side eigendecomposition:
// with Z the |B|×m matrix of rows √|wᵢ|·xᵢ and sign s, the matrix is s·ZᵀZ;
// eigenpairs (σ², u) of the |B|×|B| Gram K = ZZᵀ give right vectors
// v = Zᵀu/σ, so s·ZᵀZ = Σ s·σ²·vvᵀ, truncated by the ε coverage rule. This
// keeps capture cost O(B²m + B³) instead of O(m³) when B < m.
func weightedGramCache(rows [][]float64, weights []float64, m int, useSVD bool, eps float64) (*iterCache, error) {
	sign, nz, err := weightSign(rows, weights)
	if err != nil {
		return nil, err
	}
	if !useSVD {
		full := mat.NewDense(m, m)
		if nz == 0 {
			return &iterCache{full: full}, nil
		}
		// Σ wᵢ·xᵢxᵢᵀ = sign·ZᵀZ routed through the blocked Gram kernel, which
		// is both faster and bitwise-deterministic at any worker count.
		z := buildScaledRows(rows, weights, nz, m)
		z.GramInto(full)
		if sign < 0 {
			full.Scale(-1)
		}
		return &iterCache{full: full}, nil
	}
	if nz == 0 {
		// All-zero weights: represent the zero matrix with rank-1 zero factors.
		return &iterCache{p: mat.NewDense(m, 1), v: mat.NewDense(m, 1)}, nil
	}
	z := buildScaledRows(rows, weights, nz, m)
	// K = Z·Zᵀ via the blocked row-Gram kernel.
	kmat := mat.NewDense(nz, nz)
	z.RowGramInto(kmat)
	eig, err := mat.NewEigenSym(kmat)
	if err != nil {
		return nil, err
	}
	// Coverage truncation over the (non-negative) eigenvalues of K.
	var total float64
	for _, v := range eig.Values {
		if v > 0 {
			total += v
		}
	}
	r := 0
	if total > 0 {
		target := (1 - eps) * total
		var run float64
		for _, v := range eig.Values {
			if v <= 0 {
				break
			}
			run += v
			r++
			if run >= target {
				break
			}
		}
	}
	if r == 0 {
		return &iterCache{p: mat.NewDense(m, 1), v: mat.NewDense(m, 1)}, nil
	}
	p := mat.NewDense(m, r)
	v := mat.NewDense(m, r)
	// Each factor column depends only on its own eigenpair and writes disjoint
	// columns of P and V, so the loop fans out with per-chunk scratch.
	par.For(r, par.Grain(2*nz*m), func(lo, hi int) {
		u := make([]float64, nz)
		vcol := make([]float64, m)
		for c := lo; c < hi; c++ {
			sigma2 := eig.Values[c]
			for i := 0; i < nz; i++ {
				u[i] = eig.Q.At(i, c)
			}
			// vcol = Zᵀu / σ.
			z.MulVecTInto(vcol, u)
			inv := 1 / sqrtAbs(sigma2)
			for i := 0; i < m; i++ {
				vv := vcol[i] * inv
				v.Set(i, c, vv)
				p.Set(i, c, sign*sigma2*vv)
			}
		}
	})
	return &iterCache{p: p, v: v}, nil
}

// weightSign returns the shared sign of the weights (1.0 when weights is nil
// or all-zero) and the count of non-zero-weight rows. Weights of both signs
// are an error: no sign·ZᵀZ represents their sum.
func weightSign(rows [][]float64, weights []float64) (sign float64, nz int, err error) {
	if weights == nil {
		return 1, len(rows), nil
	}
	neg := 0
	for _, w := range weights {
		if w != 0 {
			nz++
		}
		if w < 0 {
			neg++
		}
	}
	if neg == 0 {
		return 1, nz, nil
	}
	if neg < nz {
		return 0, 0, errors.New("core: weighted Gram needs weights of one sign")
	}
	return -1, nz, nil
}

// stabilizedEigens eigendecomposes PrIU-opt's stabilized matrices
// C*ₖ = Σᵢ aₖᵢ·xᵢxᵢᵀ for k < q over all rows of x, a indexed [k*n+i].
// Capture and snapshot restore both build them here, through the blocked
// Gram kernel whose reduction plan depends on the shape alone, so a restored
// updater reproduces the captured bits at any worker count and work cutoff.
func stabilizedEigens(x *mat.Dense, a []float64, q int) ([]*mat.Eigen, error) {
	n := x.Rows()
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	eigs := make([]*mat.Eigen, q)
	for k := range eigs {
		c, err := weightedGramCache(rows, a[k*n:(k+1)*n], x.Cols(), false, 0)
		if err != nil {
			return nil, err
		}
		if eigs[k], err = mat.NewEigenSym(c.full); err != nil {
			return nil, err
		}
	}
	return eigs, nil
}

// buildScaledRows packs the non-zero-weight rows √|wᵢ|·xᵢ into a dense nz×m
// matrix Z, so that sign·ZᵀZ = Σ wᵢ·xᵢxᵢᵀ.
func buildScaledRows(rows [][]float64, weights []float64, nz, m int) *mat.Dense {
	z := mat.NewDense(nz, m)
	zi := 0
	for k, row := range rows {
		w := 1.0
		if weights != nil {
			w = weights[k]
		}
		if w == 0 {
			continue
		}
		dst := z.Row(zi)
		if w == 1 {
			copy(dst, row)
		} else {
			s := sqrtAbs(w)
			for j, v := range row {
				dst[j] = s * v
			}
		}
		zi++
	}
	return z
}

func sqrtAbs(x float64) float64 { return math.Sqrt(math.Abs(x)) }

// rollRecurrence evaluates z[i] ← γᵢ·z[i] + βᵢ repeated `iters` times for
// every coordinate, the O(τm) eigenbasis recurrence shared by PrIU-opt's
// linear (Eq 17) and logistic (Sec 5.4) update phases. Coordinates are
// independent, so the loop runs block-parallel for large τ·m.
func rollRecurrence(z []float64, iters int, coef func(i int) (gamma, beta, z0 float64)) {
	par.For(len(z), par.Grain(iters), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			gamma, beta, zi := coef(i)
			for t := 0; t < iters; t++ {
				zi = gamma*zi + beta
			}
			z[i] = zi
		}
	})
}

// survivors returns the sample count n' = n − dn left after dn distinct
// removals, rejecting a removal set that leaves no samples.
func survivors(n, dn int) (int, error) {
	if n-dn <= 0 {
		return 0, fmt.Errorf("core: removal leaves no samples")
	}
	return n - dn, nil
}

// gatherRemoved returns the Δn×m matrix whose row r is X[ids[r]] — the
// removed rows in fold (log) order — filling it in ascending row-index
// order, with at(r, i) run alongside for each log position r and row i so
// the caller can gather per-row coefficients in the same pass. A long
// deletion log then streams through X and the coefficient arrays in memory
// order instead of jumping across them: on a cold cache the jumps cost more
// than the fold's arithmetic. mask is the set of ids.
func gatherRemoved(x *mat.Dense, mask []bool, ids []int, at func(r, i int)) *mat.Dense {
	pos := make([]int32, len(mask))
	for r, i := range ids {
		pos[i] = int32(r)
	}
	dst := mat.NewDense(len(ids), x.Cols())
	for i, removed := range mask {
		if removed {
			r := int(pos[i])
			copy(dst.Row(r), x.Row(i))
			at(r, i)
		}
	}
	return dst
}

// foldRemoved sets one iteration's removed-row corrections of Eq 13/19,
// dGW = ΔC·w = Σ aₖ·xᵢ and, unless dDV is nil, dDV = ΔD = Σ dₖ·xᵢ over the
// removed members i = batch[k], k in pos, where coef(k, i, xᵢ·w) returns
// (aₖ, dₖ). ΔD does not depend on w, so a roll that has it cached passes a
// nil dDV and pays only for ΔC·w. Four rows share each pass: four
// independent dot chains share each load of w, as in Dense.MulVecInto, and
// one pass adds the four rows to both sums. Every dot folds j in ascending
// order and every coordinate adds the rows in order from zero, so the bits
// are those of one mat.Dot and two mat.Axpy calls per row.
func foldRemoved(dGW, dDV []float64, x *mat.Dense, w []float64, batch, pos []int, coef func(k, i int, dot float64) (a, d float64)) {
	n := len(w)
	dGW = dGW[:n:n]
	mat.ZeroVec(dGW)
	if dDV != nil {
		dDV = dDV[:n:n]
		mat.ZeroVec(dDV)
	}
	r := 0
	for ; r+4 <= len(pos); r += 4 {
		i0, i1, i2, i3 := batch[pos[r]], batch[pos[r+1]], batch[pos[r+2]], batch[pos[r+3]]
		x0 := x.Row(i0)[:n:n]
		x1 := x.Row(i1)[:n:n]
		x2 := x.Row(i2)[:n:n]
		x3 := x.Row(i3)[:n:n]
		var s0, s1, s2, s3 float64
		for j, wv := range w[:n] {
			s0 += x0[j] * wv
			s1 += x1[j] * wv
			s2 += x2[j] * wv
			s3 += x3[j] * wv
		}
		a0, d0 := coef(pos[r], i0, s0)
		a1, d1 := coef(pos[r+1], i1, s1)
		a2, d2 := coef(pos[r+2], i2, s2)
		a3, d3 := coef(pos[r+3], i3, s3)
		if dDV == nil {
			for j, g := range dGW {
				g += a0 * x0[j]
				g += a1 * x1[j]
				g += a2 * x2[j]
				g += a3 * x3[j]
				dGW[j] = g
			}
			continue
		}
		for j, g := range dGW {
			v0, v1, v2, v3 := x0[j], x1[j], x2[j], x3[j]
			g += a0 * v0
			g += a1 * v1
			g += a2 * v2
			g += a3 * v3
			dGW[j] = g
			e := dDV[j]
			e += d0 * v0
			e += d1 * v1
			e += d2 * v2
			e += d3 * v3
			dDV[j] = e
		}
	}
	for ; r < len(pos); r++ {
		k := pos[r]
		xi := x.Row(batch[k])[:n:n]
		var s float64
		for j, wv := range w[:n] {
			s += xi[j] * wv
		}
		a, d := coef(k, batch[k], s)
		for j, v := range xi {
			dGW[j] += a * v
		}
		if dDV != nil {
			for j, v := range xi {
				dDV[j] += d * v
			}
		}
	}
}
