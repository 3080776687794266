package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

// LinearOpt holds the offline state of PrIU-opt for linear regression
// (Sec 5.2): the GD approximation replaces the mini-batch sums with the
// full-data matrices M = XᵀX and N = XᵀY, eigendecomposed once offline;
// the online update then only (a) incrementally updates the eigenvalues for
// the removed rows (Eq 18, Ning et al.) and (b) rolls the τ iterations as
// scalar recurrences in the eigenbasis (Eq 17) — O(min{Δn,m}·m²) + O(τm).
type LinearOpt struct {
	cfg  gbm.Config
	data *dataset.Dataset

	eig   *mat.Eigen // eigendecomposition of M = XᵀX (Q orthogonal)
	n     []float64  // N = XᵀY
	model *gbm.Model // GD-approximation model over the full dataset
}

// NewLinearOpt performs the offline phase of PrIU-opt: M, N and the
// eigendecomposition of M.
func NewLinearOpt(d *dataset.Dataset, cfg gbm.Config) (*LinearOpt, error) {
	lo, err := newLinearOptState(d, cfg)
	if err != nil {
		return nil, err
	}
	// The no-removal update is the GD approximation of Minit over the full
	// data — cheap (O(τm + m²)) and it gives the family a uniform Model().
	model, err := lo.Update(nil)
	if err != nil {
		return nil, err
	}
	lo.model = model
	return lo, nil
}

// newLinearOptState builds the eigen state (M = XᵀX eigendecomposed, N = XᵀY)
// without the initial model — shared by capture and snapshot restore, which
// rebuilds this cheap state from the dataset instead of serializing it.
func newLinearOptState(d *dataset.Dataset, cfg gbm.Config) (*LinearOpt, error) {
	if err := cfg.Validate(d.N()); err != nil {
		return nil, err
	}
	if d.Task != dataset.Regression {
		return nil, fmt.Errorf("core: NewLinearOpt requires a regression dataset, got %v", d.Task)
	}
	m := d.X.Gram()
	eig, err := mat.NewEigenSym(m)
	if err != nil {
		return nil, err
	}
	return &LinearOpt{cfg: cfg, data: d, eig: eig, n: d.X.MulVecT(d.Y)}, nil
}

// Model returns the GD-approximation model trained over the full dataset
// (Sec 5.2 replaces mini-batch SGD with full-batch GD offline).
func (lo *LinearOpt) Model() *gbm.Model { return lo.model }

// Update computes the updated model parameters after removing the given
// samples, using incremental eigenvalue updates and the closed iteration of
// Eq 17 with constant learning rate. Removed rows fold in the order given (a
// repeated id counts at its first occurrence) — the order the what-if cursor
// folds a deletion log in, so a cursor that applied the same log batch by
// batch evaluates to these exact bits.
func (lo *LinearOpt) Update(removed []int) (*gbm.Model, error) {
	if lo.eig == nil {
		return nil, ErrNoCapture
	}
	_, ids, err := gbm.Removals(lo.data.N(), removed)
	if err != nil {
		return nil, err
	}
	nEff, err := survivors(lo.data.N(), len(ids))
	if err != nil {
		return nil, err
	}
	m := lo.data.M()
	dn := len(ids)

	// Updated eigenvalues of M' = M − ΔXᵀΔX (Eq 18). Two cost regimes as in
	// the paper's complexity analysis O(min{Δn,m}·m²):
	// Δn < m → per-eigenvector low-rank products; otherwise form the m×m
	// ΔXᵀΔX once and take diagonal congruence entries.
	var cPrime []float64
	nPrime := mat.CloneVec(lo.n)
	if dn == 0 {
		cPrime = mat.CloneVec(lo.eig.Values)
	} else if dn < m {
		dx := mat.NewDense(dn, m)
		for r, i := range ids {
			xi := lo.data.X.Row(i)
			copy(dx.Row(r), xi)
			mat.Axpy(nPrime, -lo.data.Y[i], xi)
		}
		cPrime = lo.eig.UpdateValuesLowRank(dx)
	} else {
		delta := mat.NewDense(m, m)
		for _, i := range ids {
			xi := lo.data.X.Row(i)
			mat.AddOuter(delta, xi, xi, -1)
			mat.Axpy(nPrime, -lo.data.Y[i], xi)
		}
		cPrime = lo.eig.UpdateValues(delta)
	}
	return lo.eigenTail(cPrime, nPrime, nEff), nil
}

// eigenTail rolls Eq 17's per-eigencoordinate recurrence with w⁽⁰⁾ = 0:
// z_i ← γ_i·z_i + β_i with γ_i = 1 − ηλ − 2η·c'_i/n' and β_i = 2η/n'·(QᵀN')_i,
// for τ iterations — O(τm) — and maps z back out of the eigenbasis. Update
// and the what-if cursor share it, given the updated eigenvalues c' and N'.
func (lo *LinearOpt) eigenTail(cPrime, nPrime []float64, nEff int) *gbm.Model {
	m := lo.data.M()
	eta, lambda := lo.cfg.Eta, lo.cfg.Lambda
	qtn := lo.eig.Q.MulVecT(nPrime)
	z := make([]float64, m)
	rollRecurrence(z, lo.cfg.Iterations, func(i int) (gamma, beta, z0 float64) {
		return 1 - eta*lambda - 2*eta*cPrime[i]/float64(nEff),
			2 * eta / float64(nEff) * qtn[i],
			0
	})
	w := lo.eig.Q.MulVec(z)
	return &gbm.Model{Task: dataset.Regression, W: mat.NewDenseData(1, m, w)}
}

// FootprintBytes returns the offline state's memory: Q, the eigenvalues and
// N — O(m²), independent of τ (the space win of Sec 5.2).
func (lo *LinearOpt) FootprintBytes() int64 {
	r, c := lo.eig.Q.Dims()
	return int64(r)*int64(c)*8 + int64(len(lo.eig.Values))*8 + int64(len(lo.n))*8
}
