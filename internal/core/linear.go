package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
	"repro/internal/par"
)

// LinearProvenance holds the provenance cached during the initial training of
// a ridge linear-regression model (Sec 5.1): per iteration the unnormalized
// sums Σ_{i∈B(t)} xᵢxᵢᵀ (full or as SVD factors P⁽ᵗ⁾Vᵀ⁽ᵗ⁾) and
// Σ_{i∈B(t)} xᵢyᵢ, plus the batch schedule. The initial model Minit is
// trained alongside.
type LinearProvenance struct {
	cfg   gbm.Config
	sched *gbm.Schedule
	data  *dataset.Dataset
	model *gbm.Model

	useSVD bool
	caches []*iterCache // one per iteration: Σ xxᵀ
	dvecs  [][]float64  // one per iteration: Σ xy

	maxRank int
}

// CaptureLinear trains the initial linear-regression model on the full
// dataset while caching the provenance needed for later incremental updates.
// This is the offline phase; its cost is not part of reported update times.
func CaptureLinear(d *dataset.Dataset, cfg gbm.Config, sched *gbm.Schedule, opts Options) (*LinearProvenance, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if d.Task != dataset.Regression {
		return nil, fmt.Errorf("core: CaptureLinear requires a regression dataset, got %v", d.Task)
	}
	model, err := gbm.TrainLinear(d, cfg, sched, nil)
	if err != nil {
		return nil, err
	}
	m := d.M()
	useSVD := opts.Mode == ModeSVD || (opts.Mode == ModeAuto && m > cfg.BatchSize)
	lp := &LinearProvenance{
		cfg:    cfg,
		sched:  sched,
		data:   d,
		model:  model,
		useSVD: useSVD,
		caches: make([]*iterCache, cfg.Iterations),
		dvecs:  make([][]float64, cfg.Iterations),
	}
	eps := opts.epsilon()
	// Linear capture has no cross-iteration state: each iteration reads only
	// its scheduled batch and commits into its own caches[t]/dvecs[t] slot, so
	// the loop fans out on the pool with per-chunk row scratch. Slot commits
	// are index-addressed and the per-iteration arithmetic is worker-count
	// independent, so the stored provenance is bitwise identical at any pool
	// size.
	errs := make([]error, cfg.Iterations)
	par.For(cfg.Iterations, par.Grain(cfg.BatchSize*m), func(lo, hi int) {
		rows := make([][]float64, 0, cfg.BatchSize)
		for t := lo; t < hi; t++ {
			batch := sched.Batch(t)
			rows = rows[:0]
			dv := make([]float64, m)
			for _, i := range batch {
				xi := d.X.Row(i)
				rows = append(rows, xi)
				mat.Axpy(dv, d.Y[i], xi)
			}
			c, err := weightedGramCache(rows, nil, m, useSVD, eps)
			if err != nil {
				errs[t] = err
				return
			}
			lp.caches[t] = c
			lp.dvecs[t] = dv
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, c := range lp.caches {
		if r := c.rank(); r > lp.maxRank {
			lp.maxRank = r
		}
	}
	return lp, nil
}

// Model returns the initial model Minit trained during capture.
func (lp *LinearProvenance) Model() *gbm.Model { return lp.model }

// UsesSVD reports whether the caches store truncated SVD factors.
func (lp *LinearProvenance) UsesSVD() bool { return lp.useSVD }

// MaxRank returns the largest truncation rank across iterations (m in full
// mode).
func (lp *LinearProvenance) MaxRank() int { return lp.maxRank }

// Update incrementally computes the model that training without the removed
// samples would (approximately) produce, by zeroing out their provenance:
// Eq 13 (full caches) / Eq 14 (SVD factors). Cost per iteration is
// O(rm + ΔB·m) where ΔB is the number of removed samples in the batch.
func (lp *LinearProvenance) Update(removed []int) (*gbm.Model, error) {
	if lp.caches == nil {
		return nil, ErrNoCapture
	}
	mask, _, err := gbm.Removals(lp.data.N(), removed)
	if err != nil {
		return nil, err
	}
	m, iters := lp.data.M(), lp.cfg.Iterations
	rm := removalsFromMask(lp.sched, iters, mask)
	w := make([]float64, m)
	gw := make([]float64, m)
	scratch := make([]float64, lp.maxRank)
	dGW := make([]float64, m)
	dDV := make([]float64, m)
	_, most := rm.removedCount(0, iters)
	pos := make([]int, 0, most)
	eta, lambda := lp.cfg.Eta, lp.cfg.Lambda
	decay := 1 - eta*lambda
	for t := 0; t < iters; t++ {
		batch := lp.sched.Batch(t)
		pos = rm.positions(pos[:0], t)
		bU := len(batch) - len(pos)
		if bU == 0 {
			mat.ScaleVec(w, decay)
			continue
		}
		// gw = (Σ_B xxᵀ)·w from the cache.
		lp.caches[t].apply(gw, w, scratch)
		f := 2 * eta / float64(bU)
		dv := lp.dvecs[t]
		// Subtract removed contributions: Δ(xxᵀw) and Δ(xy) directly from the
		// data rows (the matrix-vector associativity trick of Sec 5.1). With
		// none removed both are +0 and leave the terms exact.
		foldRemoved(dGW, dDV, lp.data.X, w, batch, pos, func(_, i int, dot float64) (float64, float64) {
			return dot, lp.data.Y[i]
		})
		for j := range w {
			w[j] = decay*w[j] - f*(gw[j]-dGW[j]) + f*(dv[j]-dDV[j])
		}
	}
	return &gbm.Model{Task: dataset.Regression, W: mat.NewDenseData(1, m, w)}, nil
}

// FootprintBytes returns the memory occupied by the cached provenance
// (Table 3 accounting): iteration matrices, Σxy vectors and the batch lists.
func (lp *LinearProvenance) FootprintBytes() int64 {
	var total int64
	for _, c := range lp.caches {
		total += c.footprint()
	}
	for _, dv := range lp.dvecs {
		total += int64(len(dv)) * 8
	}
	total += batchListBytes(lp.sched, len(lp.caches))
	return total
}
