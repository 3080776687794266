package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/interp"
	"repro/internal/mat"
	"repro/internal/par"
)

// LogisticProvenance holds the provenance cached while training a binary
// logistic-regression model with the linearized update rule (Sec 4.2 + 5.3):
// per iteration the sums C⁽ᵗ⁾ = Σ aᵢ,⁽ᵗ⁾xᵢxᵢᵀ and D⁽ᵗ⁾ = Σ bᵢ,⁽ᵗ⁾yᵢxᵢ
// (full or SVD-factored), plus the per-sample linear coefficients needed to
// subtract removed contributions at update time.
type LogisticProvenance struct {
	cfg   gbm.Config
	sched *gbm.Schedule
	data  *dataset.Dataset
	lin   *interp.Linearizer

	// modelL is the model trained with the linearized rule (w_L of Eq 9);
	// modelExact is the standard-rule model Minit for accuracy comparisons.
	modelL     *gbm.Model
	modelExact *gbm.Model

	useSVD bool
	caches []*iterCache // C⁽ᵗ⁾
	dvecs  [][]float64  // D⁽ᵗ⁾
	// aCoef[t][k], bCoef[t][k] are the linearization coefficients of batch
	// member k at iteration t (aligned with sched.Batch(t)).
	aCoef, bCoef [][]float64

	maxRank int
}

// CaptureLogistic trains the linearized binary logistic model over the full
// dataset, caching provenance for incremental updates. lin may be nil, in
// which case a linearizer at the paper's default resolution is built.
func CaptureLogistic(d *dataset.Dataset, cfg gbm.Config, sched *gbm.Schedule, lin *interp.Linearizer, opts Options) (*LogisticProvenance, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if d.Task != dataset.BinaryClassification {
		return nil, fmt.Errorf("core: CaptureLogistic requires binary labels, got %v", d.Task)
	}
	if err := cfg.Validate(d.N()); err != nil {
		return nil, err
	}
	if sched == nil || sched.N() != d.N() || sched.Iterations() < cfg.Iterations {
		return nil, fmt.Errorf("core: schedule incompatible with dataset/config")
	}
	if lin == nil {
		lin = interp.NewSigmoidLinearizer()
	}
	exact, err := gbm.TrainLogistic(d, cfg, sched, nil)
	if err != nil {
		return nil, err
	}
	m := d.M()
	useSVD := opts.Mode == ModeSVD || (opts.Mode == ModeAuto && m > cfg.BatchSize)
	lp := &LogisticProvenance{
		cfg:        cfg,
		sched:      sched,
		data:       d,
		lin:        lin,
		modelExact: exact,
		useSVD:     useSVD,
		caches:     make([]*iterCache, cfg.Iterations),
		dvecs:      make([][]float64, cfg.Iterations),
		aCoef:      make([][]float64, cfg.Iterations),
		bCoef:      make([][]float64, cfg.Iterations),
	}
	eps := opts.epsilon()
	w := make([]float64, m)
	rowBuf := make([][]float64, cfg.BatchSize)
	cw := make([]float64, m)
	scratch := make([]float64, m) // rank never exceeds min(B, m)
	for t := 0; t < cfg.Iterations; t++ {
		batch := sched.Batch(t)
		b := len(batch)
		rows := rowBuf[:b]
		av := make([]float64, b)
		bv := make([]float64, b)
		dv := make([]float64, m)
		// The w-chain is inherently sequential (each iteration linearizes at
		// the current w), but within an iteration every batch member's
		// coefficient is an independent dot product writing its own av/bv
		// slot, so that inner loop fans out. The dv fold stays serial in k
		// order to keep its accumulation order fixed.
		par.For(b, par.Grain(2*m), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				i := batch[k]
				xi := d.X.Row(i)
				rows[k] = xi
				av[k], bv[k] = lin.Coefficients(d.Y[i] * mat.Dot(xi, w))
			}
		})
		for k, i := range batch {
			mat.Axpy(dv, bv[k]*d.Y[i], rows[k])
		}
		c, err := weightedGramCache(rows, av, m, useSVD, eps)
		if err != nil {
			return nil, err
		}
		lp.caches[t] = c
		lp.dvecs[t] = dv
		lp.aCoef[t] = av
		lp.bCoef[t] = bv
		if r := c.rank(); r > lp.maxRank {
			lp.maxRank = r
		}
		// Advance w with the linearized rule (Eq 9): the cached C/D are the
		// exact per-batch sums, so reuse them.
		c.apply(cw, w, scratch)
		decay := 1 - cfg.Eta*cfg.Lambda
		f := cfg.Eta / float64(b)
		for j := range w {
			w[j] = decay*w[j] + f*(cw[j]+dv[j])
		}
	}
	lp.modelL = &gbm.Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, m, w)}
	return lp, nil
}

// Model returns the standard-rule initial model Minit.
func (lp *LogisticProvenance) Model() *gbm.Model { return lp.modelExact }

// LinearizedModel returns w_L, the model trained with the linearized rule;
// by Theorem 4 it is within O((Δx)²) of Minit.
func (lp *LogisticProvenance) LinearizedModel() *gbm.Model { return lp.modelL }

// UsesSVD reports whether the caches store truncated SVD factors.
func (lp *LogisticProvenance) UsesSVD() bool { return lp.useSVD }

// MaxRank returns the largest truncation rank across iterations.
func (lp *LogisticProvenance) MaxRank() int { return lp.maxRank }

// Update incrementally computes the updated parameters w_LU after removing
// the given samples (Eq 19/20): per iteration the cached C/D are applied to
// the evolving w and the removed samples' contributions are subtracted with
// O(ΔB·m) matrix-vector work.
func (lp *LogisticProvenance) Update(removed []int) (*gbm.Model, error) {
	if lp.caches == nil {
		return nil, ErrNoCapture
	}
	mask, _, err := gbm.Removals(lp.data.N(), removed)
	if err != nil {
		return nil, err
	}
	m := lp.data.M()
	w := make([]float64, m)
	lp.updateInto(w, mask, 0, lp.cfg.Iterations)
	return &gbm.Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, m, w)}, nil
}

// updateInto rolls the incremental update from iteration t0 (exclusive of
// tEnd) on the parameter vector w in place. Shared with PrIU-opt, which uses
// t0 > 0 for its post-termination phase.
func (lp *LogisticProvenance) updateInto(w []float64, mask []bool, t0, tEnd int) {
	m := lp.data.M()
	cw := make([]float64, m)
	scratchLen := lp.maxRank
	if m > scratchLen {
		scratchLen = m
	}
	scratch := make([]float64, scratchLen)
	dDV := make([]float64, m)
	eta, lambda := lp.cfg.Eta, lp.cfg.Lambda
	for t := t0; t < tEnd; t++ {
		batch := lp.sched.Batch(t)
		lp.caches[t].apply(cw, w, scratch)
		bU := len(batch)
		removedAny := false
		dGW := scratch[:m]
		for k, i := range batch {
			if mask == nil || !mask[i] {
				continue
			}
			bU--
			if !removedAny {
				removedAny = true
				mat.ZeroVec(dGW)
				mat.ZeroVec(dDV)
			}
			xi := lp.data.X.Row(i)
			// ΔC⁽ᵗ⁾w = Σ aᵢ·xᵢ(xᵢᵀw); ΔD⁽ᵗ⁾ = Σ bᵢ·yᵢxᵢ.
			mat.Axpy(dGW, lp.aCoef[t][k]*mat.Dot(xi, w), xi)
			mat.Axpy(dDV, lp.bCoef[t][k]*lp.data.Y[i], xi)
		}
		decay := 1 - eta*lambda
		if bU == 0 {
			mat.ScaleVec(w, decay)
			continue
		}
		f := eta / float64(bU)
		dv := lp.dvecs[t]
		if !removedAny {
			for j := range w {
				w[j] = decay*w[j] + f*(cw[j]+dv[j])
			}
		} else {
			for j := range w {
				w[j] = decay*w[j] + f*(cw[j]-dGW[j]+dv[j]-dDV[j])
			}
		}
	}
}

// FootprintBytes returns the memory occupied by the cached provenance:
// C/D caches, the linear coefficients (the O(n·⌈τB/n⌉) term of Sec 5.3) and
// the batch lists.
func (lp *LogisticProvenance) FootprintBytes() int64 {
	var total int64
	for _, c := range lp.caches {
		total += c.footprint()
	}
	for _, dv := range lp.dvecs {
		total += int64(len(dv)) * 8
	}
	for t := range lp.aCoef {
		total += int64(len(lp.aCoef[t]))*8 + int64(len(lp.bCoef[t]))*8
	}
	total += lp.sched.FootprintBytes()
	return total
}
