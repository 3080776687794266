package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/interp"
	"repro/internal/mat"
)

// SparseLogisticProvenance implements PrIU's sparse-dataset path (Sec 5.3):
// for sparse training data the dense optimizations (cached Σ-matrices, SVD)
// do not apply because the SVD factors of a sparse provenance matrix are
// dense. Instead only the linearization coefficients aᵢ,⁽ᵗ⁾/bᵢ,⁽ᵗ⁾ of each
// batch member are cached, and the update phase replays the linearized rule
// (Eq 11) through the same O(nnz(batch)) scaled-weight step as retraining
// (gbm.SparseSGD) — the speed-up over retraining comes from skipping removed
// samples and the non-linear (exp) evaluations, which is why the paper
// reports only ~10% gains here.
type SparseLogisticProvenance struct {
	cfg   gbm.Config
	sched *gbm.Schedule
	data  *dataset.SparseDataset

	modelL     *gbm.Model
	modelExact *gbm.Model

	aCoef, bCoef [][]float64
}

// CaptureLogisticSparse trains the linearized sparse logistic model over the
// full dataset, caching the per-batch-member linearization coefficients.
// lin may be nil, in which case the process-wide grid at the paper's default
// resolution is used (interp.NewSigmoidLinearizer).
func CaptureLogisticSparse(d *dataset.SparseDataset, cfg gbm.Config, sched *gbm.Schedule, lin *interp.Linearizer) (*SparseLogisticProvenance, error) {
	if d.Task != dataset.BinaryClassification {
		return nil, fmt.Errorf("core: CaptureLogisticSparse requires binary labels, got %v", d.Task)
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
	exact, err := gbm.TrainLogisticSparse(d, cfg, sched, nil)
	if err != nil {
		return nil, err
	}
	sp := &SparseLogisticProvenance{
		cfg:        cfg,
		sched:      sched,
		data:       d,
		modelExact: exact,
		aCoef:      make([][]float64, cfg.Iterations),
		bCoef:      make([][]float64, cfg.Iterations),
	}
	g := gbm.NewSparseSGD(d.X, cfg)
	for t := 0; t < cfg.Iterations; t++ {
		batch := sched.Batch(t)
		av := make([]float64, len(batch))
		bv := make([]float64, len(batch))
		for k, i := range batch {
			yi := d.Y[i]
			dot := g.Dot(i)
			a, bc := lin.Coefficients(yi * dot)
			av[k], bv[k] = a, bc
			// yᵢ·xᵢ·s(z) = xᵢ·(a·(xᵢᵀw) + b·yᵢ) since yᵢ² = 1.
			g.Add(i, a*dot+bc*yi)
		}
		sp.aCoef[t] = av
		sp.bCoef[t] = bv
		g.Step()
	}
	sp.modelL = &gbm.Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, d.M(), g.Weights())}
	return sp, nil
}

// Model returns the standard-rule initial model Minit.
func (sp *SparseLogisticProvenance) Model() *gbm.Model { return sp.modelExact }

// LinearizedModel returns the model trained with the linearized rule.
func (sp *SparseLogisticProvenance) LinearizedModel() *gbm.Model { return sp.modelL }

// Update replays the linearized rule without the removed samples (Eq 11),
// reusing the cached coefficients so no sigmoid is evaluated online. The
// replay is serial and runs each batch in order, so it is bitwise identical
// at any worker count, and Update(nil) reproduces LinearizedModel exactly.
func (sp *SparseLogisticProvenance) Update(removed []int) (*gbm.Model, error) {
	if sp.aCoef == nil {
		return nil, ErrNoCapture
	}
	mask, _, err := gbm.Removals(sp.data.N(), removed)
	if err != nil {
		return nil, err
	}
	d := sp.data
	g := gbm.NewSparseSGD(d.X, sp.cfg)
	for t := 0; t < sp.cfg.Iterations; t++ {
		for k, i := range sp.sched.Batch(t) {
			if mask != nil && mask[i] {
				continue
			}
			// a·xᵢxᵢᵀw + b·yᵢxᵢ accumulated as one sparse axpy.
			g.Add(i, sp.aCoef[t][k]*g.Dot(i)+sp.bCoef[t][k]*d.Y[i])
		}
		g.Step()
	}
	return &gbm.Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, d.M(), g.Weights())}, nil
}

// FootprintBytes returns the coefficient-cache memory (O(τ·B) floats).
func (sp *SparseLogisticProvenance) FootprintBytes() int64 {
	var total int64
	for t := range sp.aCoef {
		total += int64(len(sp.aCoef[t]))*8 + int64(len(sp.bCoef[t]))*8
	}
	total += sp.sched.FootprintBytes()
	return total
}
