package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
	"repro/internal/par"
)

// MultinomialProvenance is the multinomial-logistic analogue of
// LogisticProvenance. The paper linearizes the softmax with multi-dimensional
// piecewise interpolation [Weiser & Zarantonello]; this implementation uses
// per-class tangent-line linearization of the softmax probabilities (1-D in
// each class's own logit, coefficients frozen per iteration), which keeps the
// update rule in the exact shape PrIU needs:
//
//	wₖ ← (1−ηλ)wₖ − η/B·[ Σᵢ aₖᵢ·xᵢxᵢᵀ·wₖ + Σᵢ cₖᵢ·xᵢ ]
//
// with aₖᵢ = pₖ(1−pₖ) ≥ 0 and cₖᵢ = bₖᵢ − 1{yᵢ=k}, bₖᵢ = pₖ − aₖᵢ·zₖ
// (the substitution is documented in DESIGN.md). Per class k the caches are
// Cₖ⁽ᵗ⁾ = Σ aₖᵢxᵢxᵢᵀ and Dₖ⁽ᵗ⁾ = Σ cₖᵢxᵢ.
type MultinomialProvenance struct {
	cfg   gbm.Config
	sched *gbm.Schedule
	data  *dataset.Dataset

	modelL     *gbm.Model
	modelExact *gbm.Model

	useSVD bool
	q      int
	// caches[t][k] is Cₖ⁽ᵗ⁾; dvecs[t][k] is Dₖ⁽ᵗ⁾.
	caches [][]*iterCache
	dvecs  [][][]float64
	// aCoef[t][k*B+j], cCoef[t][k*B+j]: coefficients of batch member j for
	// class k at iteration t.
	aCoef, cCoef [][]float64

	maxRank int
}

// CaptureMultinomial trains the per-class linearized multinomial model over
// the full dataset, caching provenance for incremental updates.
func CaptureMultinomial(d *dataset.Dataset, cfg gbm.Config, sched *gbm.Schedule, opts Options) (*MultinomialProvenance, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if d.Task != dataset.MultiClassification {
		return nil, fmt.Errorf("core: CaptureMultinomial requires multiclass labels, got %v", d.Task)
	}
	if err := cfg.Validate(d.N()); err != nil {
		return nil, err
	}
	if sched == nil || sched.N() != d.N() || sched.Iterations() < cfg.Iterations {
		return nil, fmt.Errorf("core: schedule incompatible with dataset/config")
	}
	exact, err := gbm.TrainMultinomial(d, cfg, sched, nil)
	if err != nil {
		return nil, err
	}
	m, q := d.M(), d.Classes
	useSVD := opts.Mode == ModeSVD || (opts.Mode == ModeAuto && m > cfg.BatchSize)
	mp := &MultinomialProvenance{
		cfg:        cfg,
		sched:      sched,
		data:       d,
		modelExact: exact,
		useSVD:     useSVD,
		q:          q,
		caches:     make([][]*iterCache, cfg.Iterations),
		dvecs:      make([][][]float64, cfg.Iterations),
		aCoef:      make([][]float64, cfg.Iterations),
		cCoef:      make([][]float64, cfg.Iterations),
	}
	eps := opts.epsilon()
	w := mat.NewDense(q, m)
	rowBuf := make([][]float64, cfg.BatchSize)
	for t := 0; t < cfg.Iterations; t++ {
		batch := sched.Batch(t)
		b := len(batch)
		rows := rowBuf[:b]
		av := make([]float64, q*b)
		cv := make([]float64, q*b)
		dvs := make([][]float64, q)
		for k := range dvs {
			dvs[k] = make([]float64, m)
		}
		// Phase 1: per-member softmax linearization. Each member writes its
		// own av/cv column, so the loop fans out with per-chunk logit/prob
		// scratch; the dvs folds stay serial in (j, k) order below so their
		// accumulation order is fixed.
		par.For(b, par.Grain(2*q*m), func(lo, hi int) {
			logits := make([]float64, q)
			probs := make([]float64, q)
			for j := lo; j < hi; j++ {
				i := batch[j]
				xi := d.X.Row(i)
				rows[j] = xi
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
					av[k*b+j] = a
					cv[k*b+j] = c
				}
			}
		})
		for j, i := range batch {
			xi := d.X.Row(i)
			for k := 0; k < q; k++ {
				mat.Axpy(dvs[k], cv[k*b+j], xi)
			}
		}
		// Phase 2: per-class cache build — classes are independent and each
		// writes only its own ics[k] slot.
		ics := make([]*iterCache, q)
		errs := make([]error, q)
		par.For(q, 1, func(klo, khi int) {
			for k := klo; k < khi; k++ {
				ic, err := weightedGramCache(rows, av[k*b:(k+1)*b], m, useSVD, eps)
				if err != nil {
					errs[k] = err
					return
				}
				ics[k] = ic
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for _, ic := range ics {
			if r := ic.rank(); r > mp.maxRank {
				mp.maxRank = r
			}
		}
		mp.caches[t] = ics
		mp.dvecs[t] = dvs
		mp.aCoef[t] = av
		mp.cCoef[t] = cv
		// Phase 3: advance the linearized model — each class updates its own
		// row of w with private scratch.
		decay := 1 - cfg.Eta*cfg.Lambda
		f := cfg.Eta / float64(b)
		par.For(q, 1, func(klo, khi int) {
			cw := make([]float64, m)
			scratch := make([]float64, m)
			for k := klo; k < khi; k++ {
				ics[k].apply(cw, w.Row(k), scratch)
				wk := w.Row(k)
				dv := dvs[k]
				for j := range wk {
					wk[j] = decay*wk[j] - f*(cw[j]+dv[j])
				}
			}
		})
	}
	mp.modelL = &gbm.Model{Task: dataset.MultiClassification, W: w}
	return mp, nil
}

// Model returns the standard-rule initial model Minit.
func (mp *MultinomialProvenance) Model() *gbm.Model { return mp.modelExact }

// LinearizedModel returns the model trained with the linearized rule.
func (mp *MultinomialProvenance) LinearizedModel() *gbm.Model { return mp.modelL }

// UsesSVD reports whether the caches store truncated SVD factors.
func (mp *MultinomialProvenance) UsesSVD() bool { return mp.useSVD }

// MaxRank returns the largest truncation rank across iterations and classes
// (m in full mode).
func (mp *MultinomialProvenance) MaxRank() int { return mp.maxRank }

// Update incrementally computes the updated q×m parameter matrix after
// removing the given samples, zeroing out their per-class contributions.
func (mp *MultinomialProvenance) Update(removed []int) (*gbm.Model, error) {
	if mp.caches == nil {
		return nil, ErrNoCapture
	}
	mask, _, err := gbm.Removals(mp.data.N(), removed)
	if err != nil {
		return nil, err
	}
	m, q := mp.data.M(), mp.q
	w := mat.NewDense(q, m)
	mp.updateInto(w, mask, 0, mp.cfg.Iterations)
	return &gbm.Model{Task: dataset.MultiClassification, W: w}, nil
}

// updateInto rolls the per-class incremental update from iteration t0 to
// tEnd on w in place. Classes evolve independently — the only cross-class
// inputs are the per-iteration surviving batch sizes, which are precomputed —
// so classes run in parallel, each rolling all its iterations with private
// scratch. The restructure preserves the serial per-class arithmetic order,
// and the nested kernels (including the SVD caches' transpose mat-vec, which
// reduces via par.MapReduceDet) are bitwise-deterministic at any worker
// count, so the update is too.
func (mp *MultinomialProvenance) updateInto(w *mat.Dense, mask []bool, t0, tEnd int) {
	m, q := mp.data.M(), mp.q
	eta, lambda := mp.cfg.Eta, mp.cfg.Lambda
	decay := 1 - eta*lambda
	bUs := make([]int, tEnd-t0)
	for t := t0; t < tEnd; t++ {
		batch := mp.sched.Batch(t)
		bU := len(batch)
		if mask != nil {
			for _, i := range batch {
				if mask[i] {
					bU--
				}
			}
		}
		bUs[t-t0] = bU
	}
	par.For(q, 1, func(klo, khi int) {
		cw := make([]float64, m)
		scratch := make([]float64, m)
		dGW := make([]float64, m)
		dDV := make([]float64, m)
		for k := klo; k < khi; k++ {
			wk := w.Row(k)
			for t := t0; t < tEnd; t++ {
				bU := bUs[t-t0]
				if bU == 0 {
					mat.ScaleVec(wk, decay)
					continue
				}
				batch := mp.sched.Batch(t)
				b := len(batch)
				mp.caches[t][k].apply(cw, wk, scratch)
				removedAny := false
				for j, i := range batch {
					if mask == nil || !mask[i] {
						continue
					}
					if !removedAny {
						removedAny = true
						mat.ZeroVec(dGW)
						mat.ZeroVec(dDV)
					}
					xi := mp.data.X.Row(i)
					mat.Axpy(dGW, mp.aCoef[t][k*b+j]*mat.Dot(xi, wk), xi)
					mat.Axpy(dDV, mp.cCoef[t][k*b+j], xi)
				}
				f := eta / float64(bU)
				dv := mp.dvecs[t][k]
				if !removedAny {
					for j := range wk {
						wk[j] = decay*wk[j] - f*(cw[j]+dv[j])
					}
				} else {
					for j := range wk {
						wk[j] = decay*wk[j] - f*(cw[j]-dGW[j]+dv[j]-dDV[j])
					}
				}
			}
		}
	})
}

// FootprintBytes returns the memory occupied by the cached provenance.
func (mp *MultinomialProvenance) FootprintBytes() int64 {
	var total int64
	for t := range mp.caches {
		for _, c := range mp.caches[t] {
			total += c.footprint()
		}
		for _, dv := range mp.dvecs[t] {
			total += int64(len(dv)) * 8
		}
		total += int64(len(mp.aCoef[t]))*8 + int64(len(mp.cCoef[t]))*8
	}
	total += mp.sched.FootprintBytes()
	return total
}
