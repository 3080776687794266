package core

import (
	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/interp"
	"repro/internal/mat"
)

// LogisticOpt is PrIU-opt for binary logistic regression (Sec 5.4). It
// wraps a PrIU capture truncated at ts = ⌈fraction·τ⌉ iterations and, for the
// remaining τ−ts iterations, freezes the linearization coefficients at their
// iteration-ts values (they stabilize as w converges): the stabilized
// full-data matrices C* = Σᵢ aᵢ,*·xᵢxᵢᵀ and D* = Σᵢ bᵢ,*·yᵢxᵢ are
// eigendecomposed offline, so the online update needs only an incremental
// eigenvalue update for the removed rows plus O((τ−ts)·m) scalar recurrences.
type LogisticOpt struct {
	prov *LogisticProvenance
	ts   int
	// fullIterations is the total horizon τ; the PrIU caches cover only the
	// first ts of them.
	fullIterations int

	// Stabilized coefficients for every sample (aStar ≤ 0).
	aStar, bStar []float64
	// Eigendecomposition of C* and the vector D*.
	eig   *mat.Eigen
	dStar []float64
}

// CaptureLogisticOpt performs the PrIU-opt offline phase: PrIU capture for
// the first ts iterations, then stabilization, full-data C*/D* and the
// eigendecomposition of C*.
func CaptureLogisticOpt(d *dataset.Dataset, cfg gbm.Config, sched *gbm.Schedule, lin *interp.Linearizer, opts Options) (*LogisticOpt, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	ts := int(float64(cfg.Iterations) * opts.earlyTermFrac())
	if ts < 1 {
		ts = 1
	}
	if ts > cfg.Iterations {
		ts = cfg.Iterations
	}
	// Capture with a config truncated at ts; the schedule still covers the
	// full τ iterations, which updateInto relies on only up to ts.
	capCfg := cfg
	capCfg.Iterations = ts
	prov, err := CaptureLogistic(d, capCfg, sched, lin, opts)
	if err != nil {
		return nil, err
	}
	// Remember the full horizon for the second phase.
	prov.cfg.Iterations = ts // capture stored ts; keep explicit
	lo := &LogisticOpt{prov: prov, ts: ts}
	lo.prov.cfg = capCfg

	m := d.M()
	w := prov.modelL.W.Row(0)
	lo.aStar = make([]float64, d.N())
	lo.bStar = make([]float64, d.N())
	lo.dStar = make([]float64, m)
	linz := prov.lin
	for i := 0; i < d.N(); i++ {
		xi := d.X.Row(i)
		yi := d.Y[i]
		a, b := linz.Coefficients(yi * mat.Dot(xi, w))
		lo.aStar[i], lo.bStar[i] = a, b
		mat.Axpy(lo.dStar, b*yi, xi)
	}
	eigs, err := stabilizedEigens(d.X, lo.aStar, 1)
	if err != nil {
		return nil, err
	}
	lo.eig = eigs[0]
	lo.fullIterations = cfg.Iterations
	return lo, nil
}

// Model returns the standard-rule initial model Minit (trained to ts; the
// exact model over the full horizon is available from gbm directly).
func (lo *LogisticOpt) Model() *gbm.Model { return lo.prov.Model() }

// Ts returns the early-termination iteration ts.
func (lo *LogisticOpt) Ts() int { return lo.ts }

// Update computes the updated parameters: PrIU iterations up to ts, then the
// eigen-space recurrence for the remaining τ−ts iterations with incrementally
// updated eigenvalues (Eq 18) and the stabilized D*. Removed rows fold into
// the Gram corrections and D*' in the order given (a repeated id counts at
// its first occurrence), the what-if cursor's fold order.
func (lo *LogisticOpt) Update(removed []int) (*gbm.Model, error) {
	if lo.eig == nil {
		return nil, ErrNoCapture
	}
	d := lo.prov.data
	mask, ids, err := gbm.Removals(d.N(), removed)
	if err != nil {
		return nil, err
	}
	nEff, err := survivors(d.N(), len(ids))
	if err != nil {
		return nil, err
	}

	// Eigenvalues of C*' = C* − ΔC* where ΔC* = Σ_{i∈R} aᵢ,*·xᵢxᵢᵀ
	// (aᵢ,* ≤ 0 ⇒ −ΔC* = ZᵀZ with rows √(−aᵢ,*)xᵢ), and D*' = D* − ΔD*.
	dStar := mat.CloneVec(lo.dStar)
	var cPrime []float64
	if len(ids) == 0 {
		cPrime = mat.CloneVec(lo.eig.Values)
	} else {
		// Per log position r: the D* coefficient −bᵢ,*·yᵢ and the Gram
		// row scale √(−aᵢ,*), gathered with the rows in index order.
		coef, scale := make([]float64, len(ids)), make([]float64, len(ids))
		z := gatherRemoved(d.X, mask, ids, func(r, i int) {
			coef[r], scale[r] = -lo.bStar[i]*d.Y[i], sqrtAbs(lo.aStar[i])
		})
		for r := range ids {
			zr := z.Row(r)
			mat.Axpy(dStar, coef[r], zr)
			mat.ScaleVec(zr, scale[r])
		}
		cPrime = lo.eig.UpdateValuesGram(z, +1)
	}
	return lo.finish(mask, cPrime, dStar, nEff), nil
}

// finish runs both update phases given the removal mask, the updated
// eigenvalues c' of C*' and D*': PrIU incremental iterations 0..ts, then the
// coordinate recurrences in the eigenbasis —
// z ← (1−ηλ + η·c'ᵢ/n')·z + η·(QᵀD*')ᵢ/n', for τ−ts iterations. Update and
// the what-if cursor share it.
func (lo *LogisticOpt) finish(mask []bool, cPrime, dStar []float64, nEff int) *gbm.Model {
	m := lo.prov.data.M()
	w := make([]float64, m)
	lo.prov.updateInto(w, mask, 0, lo.ts)
	eta, lambda := lo.prov.cfg.Eta, lo.prov.cfg.Lambda
	zc := lo.eig.Q.MulVecT(w)
	dt := lo.eig.Q.MulVecT(dStar)
	rollRecurrence(zc, lo.fullIterations-lo.ts, func(i int) (gamma, beta, z0 float64) {
		return 1 - eta*lambda + eta*cPrime[i]/float64(nEff),
			eta * dt[i] / float64(nEff),
			zc[i]
	})
	w = lo.eig.Q.MulVec(zc)
	return &gbm.Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, m, w)}
}

// FootprintBytes returns the provenance memory: the ts-truncated PrIU caches
// plus the O(m²) eigen state and the stabilized coefficients.
func (lo *LogisticOpt) FootprintBytes() int64 {
	total := lo.prov.FootprintBytes()
	r, c := lo.eig.Q.Dims()
	total += int64(r)*int64(c)*8 + int64(len(lo.eig.Values))*8
	total += int64(len(lo.aStar))*8 + int64(len(lo.bStar))*8 + int64(len(lo.dStar))*8
	return total
}
