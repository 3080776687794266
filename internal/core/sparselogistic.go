package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/interp"
	"repro/internal/mat"
	"repro/internal/par"
)

// SparseLogisticProvenance implements PrIU's sparse-dataset path (Sec 5.3):
// for sparse training data the dense optimizations (cached Σ-matrices, SVD)
// do not apply because the SVD factors of a sparse provenance matrix are
// dense. Instead only the linearization coefficients aᵢ,⁽ᵗ⁾/bᵢ,⁽ᵗ⁾ of each
// batch member are cached, and the update phase replays the linearized rule
// (Eq 11) directly with sparse matrix-vector products — the speed-up over
// retraining comes from skipping removed samples and the non-linear
// (exp) evaluations, which is why the paper reports only ~10% gains here.
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
	m := d.M()
	sp := &SparseLogisticProvenance{
		cfg:        cfg,
		sched:      sched,
		data:       d,
		modelExact: exact,
		aCoef:      make([][]float64, cfg.Iterations),
		bCoef:      make([][]float64, cfg.Iterations),
	}
	w := make([]float64, m)
	step := make([]float64, m)
	for t := 0; t < cfg.Iterations; t++ {
		batch := sched.Batch(t)
		b := len(batch)
		av := make([]float64, b)
		bv := make([]float64, b)
		mat.ZeroVec(step)
		for k, i := range batch {
			yi := d.Y[i]
			z := yi * d.X.RowDot(i, w)
			a, bc := lin.Coefficients(z)
			av[k], bv[k] = a, bc
			// yᵢ·xᵢ·s(z) = xᵢ·(a·(xᵢᵀw) + b·yᵢ) since yᵢ² = 1.
			d.X.AddScaledRow(step, i, a*(z*yi)+bc*yi)
		}
		sp.aCoef[t] = av
		sp.bCoef[t] = bv
		decay := 1 - cfg.Eta*cfg.Lambda
		f := cfg.Eta / float64(b)
		for j := range w {
			w[j] = decay*w[j] + f*step[j]
		}
	}
	sp.modelL = &gbm.Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, m, w)}
	return sp, nil
}

// Model returns the standard-rule initial model Minit.
func (sp *SparseLogisticProvenance) Model() *gbm.Model { return sp.modelExact }

// LinearizedModel returns the model trained with the linearized rule.
func (sp *SparseLogisticProvenance) LinearizedModel() *gbm.Model { return sp.modelL }

// Update replays the linearized rule without the removed samples (Eq 11),
// reusing the cached coefficients so no sigmoid is evaluated online.
func (sp *SparseLogisticProvenance) Update(removed []int) (*gbm.Model, error) {
	if sp.aCoef == nil {
		return nil, ErrNoCapture
	}
	mask, _, err := gbm.Removals(sp.data.N(), removed)
	if err != nil {
		return nil, err
	}
	d := sp.data
	m := d.M()
	w := make([]float64, m)
	eta, lambda := sp.cfg.Eta, sp.cfg.Lambda
	// Chunk grain so each chunk touches ~par.MinWork stored non-zeros; small
	// batches collapse to a single chunk and replay serially.
	rows, _ := d.X.Dims()
	avgNNZ := 0
	if rows > 0 {
		avgNNZ = d.X.NNZ() / rows
	}
	grain := par.DetGrain(avgNNZ)
	for t := 0; t < sp.cfg.Iterations; t++ {
		batch := sp.sched.Batch(t)
		// Row-parallel linearized replay: each chunk scatters its batch slice
		// into a private accumulator (sparse SpMV-transpose shape). The chunk
		// plan and fold order depend only on (len(batch), grain) — never on
		// the worker count or calibration — so the replayed model is bitwise
		// identical at any pool size.
		acc := par.MapReduceDet(len(batch), grain,
			func() *sparseStepAcc { return &sparseStepAcc{step: make([]float64, m)} },
			func(acc *sparseStepAcc, lo, hi int) *sparseStepAcc {
				for k := lo; k < hi; k++ {
					i := batch[k]
					if mask != nil && mask[i] {
						continue
					}
					acc.bU++
					yi := d.Y[i]
					// a·xᵢxᵢᵀw + b·yᵢxᵢ accumulated as one sparse axpy.
					coef := sp.aCoef[t][k]*d.X.RowDot(i, w) + sp.bCoef[t][k]*yi
					d.X.AddScaledRow(acc.step, i, coef)
				}
				return acc
			},
			func(a, b *sparseStepAcc) *sparseStepAcc {
				mat.Axpy(a.step, 1, b.step)
				a.bU += b.bU
				return a
			})
		decay := 1 - eta*lambda
		if acc.bU == 0 {
			mat.ScaleVec(w, decay)
			continue
		}
		f := eta / float64(acc.bU)
		for j := range w {
			w[j] = decay*w[j] + f*acc.step[j]
		}
	}
	return &gbm.Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, m, w)}, nil
}

// sparseStepAcc is a worker-private accumulator for the parallel batch
// replay: the partial step vector and the surviving-member count.
type sparseStepAcc struct {
	step []float64
	bU   int
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
