package core

import (
	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

// MultinomialOpt is PrIU-opt for multinomial logistic regression: the
// early-termination strategy of Sec 5.4 applied per class. PrIU capture runs
// for the first ts iterations; the per-class linearization coefficients are
// then frozen at their iteration-ts values, the stabilized full-data matrices
// C*ₖ = Σᵢ aₖᵢ,*·xᵢxᵢᵀ and D*ₖ = Σᵢ cₖᵢ,*·xᵢ are eigendecomposed offline,
// and the online update finishes the remaining τ−ts iterations as scalar
// recurrences in each class's eigenbasis.
type MultinomialOpt struct {
	prov           *MultinomialProvenance
	ts             int
	fullIterations int

	// Stabilized per-class coefficients for every sample: index [k*n+i].
	aStar, cStar []float64
	// Per-class eigendecompositions of C*ₖ and the vectors D*ₖ.
	eigs  []*mat.Eigen
	dStar [][]float64
	// occ maps each row to its phase-1 schedule coordinates (t < ts).
	occ occurrenceIndex
}

// CaptureMultinomialOpt performs the PrIU-opt offline phase for multinomial
// logistic regression.
func CaptureMultinomialOpt(d *dataset.Dataset, cfg gbm.Config, sched *gbm.Schedule, opts Options) (*MultinomialOpt, error) {
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
	capCfg := cfg
	capCfg.Iterations = ts
	prov, err := CaptureMultinomial(d, capCfg, sched, opts)
	if err != nil {
		return nil, err
	}
	mo := &MultinomialOpt{prov: prov, ts: ts, fullIterations: cfg.Iterations}

	m, q, n := d.M(), d.Classes, d.N()
	w := prov.modelL.W
	mo.aStar = make([]float64, q*n)
	mo.cStar = make([]float64, q*n)
	mo.dStar = make([][]float64, q)
	for k := 0; k < q; k++ {
		mo.dStar[k] = make([]float64, m)
	}
	logits := make([]float64, q)
	probs := make([]float64, q)
	for i := 0; i < n; i++ {
		xi := d.X.Row(i)
		for k := 0; k < q; k++ {
			logits[k] = mat.Dot(w.Row(k), xi)
		}
		gbm.Softmax(probs, logits)
		yi := int(d.Y[i])
		for k := 0; k < q; k++ {
			a := probs[k] * (1 - probs[k])
			c := probs[k] - a*logits[k]
			if k == yi {
				c -= 1
			}
			mo.aStar[k*n+i] = a
			mo.cStar[k*n+i] = c
			mat.Axpy(mo.dStar[k], c, xi)
		}
	}
	if mo.eigs, err = stabilizedEigens(d.X, mo.aStar, q); err != nil {
		return nil, err
	}
	mo.occ = newOccurrenceIndex(sched, ts, n)
	return mo, nil
}

// Model returns the standard-rule initial model.
func (mo *MultinomialOpt) Model() *gbm.Model { return mo.prov.Model() }

// Ts returns the early-termination iteration.
func (mo *MultinomialOpt) Ts() int { return mo.ts }

// Update computes the updated parameters: PrIU iterations to ts, then the
// per-class eigen recurrences with incrementally updated eigenvalues. Removed
// rows fold in the order given (a repeated id counts at its first
// occurrence), the what-if cursor's fold order.
func (mo *MultinomialOpt) Update(removed []int) (*gbm.Model, error) {
	if mo.eigs == nil {
		return nil, ErrNoCapture
	}
	d := mo.prov.data
	mask, ids, err := gbm.Removals(d.N(), removed)
	if err != nil {
		return nil, err
	}
	nEff, err := survivors(d.N(), len(ids))
	if err != nil {
		return nil, err
	}
	m, q, n, dn := d.M(), mo.prov.q, d.N(), len(ids)
	// Per class k and log position r, at [k*dn+r]: the D*ₖ coefficient
	// −cₖᵢ,* and the Gram row scale √aₖᵢ,*, gathered with the rows.
	var x *mat.Dense
	coef, scale := make([]float64, q*dn), make([]float64, q*dn)
	if dn > 0 {
		x = gatherRemoved(d.X, mask, ids, func(r, i int) {
			for k := 0; k < q; k++ {
				coef[k*dn+r], scale[k*dn+r] = -mo.cStar[k*n+i], sqrtAbs(mo.aStar[k*n+i])
			}
		})
	}
	cPrimes := make([][]float64, q)
	dStars := make([][]float64, q)
	for k := 0; k < q; k++ {
		dStars[k] = mat.CloneVec(mo.dStar[k])
		if dn == 0 {
			cPrimes[k] = mat.CloneVec(mo.eigs[k].Values)
			continue
		}
		// ΔC*ₖ = Σ_{i∈R} aₖᵢ,*·xᵢxᵢᵀ = ZᵀZ with rows √aₖᵢ,*·xᵢ (a ≥ 0);
		// removal subtracts it, so the eigenvalue update uses sign −1.
		z := mat.NewDense(dn, m)
		for r := 0; r < dn; r++ {
			xr, s := x.Row(r), scale[k*dn+r]
			dst := z.Row(r)
			for j, v := range xr {
				dst[j] = s * v
			}
			mat.Axpy(dStars[k], coef[k*dn+r], xr)
		}
		cPrimes[k] = mo.eigs[k].UpdateValuesGram(z, -1)
	}
	rm := mo.phase1Removals(false)
	rm.add(&mo.occ, ids)
	return mo.finish(rm, cPrimes, dStars, nEff), nil
}

// phase1Removals returns an empty removal set over the PrIU phase (t < ts);
// cached keeps ΔD per iteration and class, as a what-if cursor does.
func (mo *MultinomialOpt) phase1Removals(cached bool) *schedRemovals {
	return newSchedRemovals(mo.ts, mo.occ.stride, mo.prov.q, mo.prov.data.M(), cached)
}

// finish runs both update phases given the phase-1 removals and, per class, the
// updated eigenvalues of C*ₖ' and D*ₖ': PrIU to ts, then each class's
// eigenbasis recurrence for the remaining τ−ts iterations. Update and the
// what-if cursor share it.
func (mo *MultinomialOpt) finish(rm *schedRemovals, cPrimes, dStars [][]float64, nEff int) *gbm.Model {
	m, q := mo.prov.data.M(), mo.prov.q
	w := mat.NewDense(q, m)
	mo.prov.updateInto(w, rm, 0, mo.ts)
	eta, lambda := mo.prov.cfg.Eta, mo.prov.cfg.Lambda
	rem := mo.fullIterations - mo.ts
	for k := 0; k < q; k++ {
		zc := mo.eigs[k].Q.MulVecT(w.Row(k))
		dt := mo.eigs[k].Q.MulVecT(dStars[k])
		rollRecurrence(zc, rem, func(i int) (gamma, beta, z0 float64) {
			return 1 - eta*lambda - eta*cPrimes[k][i]/float64(nEff),
				-eta * dt[i] / float64(nEff),
				zc[i]
		})
		copy(w.Row(k), mo.eigs[k].Q.MulVec(zc))
	}
	return &gbm.Model{Task: dataset.MultiClassification, W: w}
}

// FootprintBytes returns the provenance memory: the ts-truncated PrIU caches
// plus the per-class O(m²) eigen state, the stabilized coefficients and the
// occurrence index.
func (mo *MultinomialOpt) FootprintBytes() int64 {
	total := mo.prov.FootprintBytes() + mo.occ.footprint()
	for k := range mo.eigs {
		r, c := mo.eigs[k].Q.Dims()
		total += int64(r)*int64(c)*8 + int64(len(mo.eigs[k].Values))*8
		total += int64(len(mo.dStar[k])) * 8
	}
	total += int64(len(mo.aStar))*8 + int64(len(mo.cStar))*8
	return total
}
