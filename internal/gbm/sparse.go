package gbm

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/interp"
	"repro/internal/mat"
)

// TrainLogisticSparse runs mb-SGD binary logistic regression over a CSR
// dataset (the RCV1-style path of Sec 5.3). A non-nil removed mask
// makes this the sparse BaseL retrainer.
func TrainLogisticSparse(d *dataset.SparseDataset, cfg Config, sched *Schedule, removed []bool) (*Model, error) {
	if err := cfg.Validate(d.N()); err != nil {
		return nil, err
	}
	if sched == nil || sched.N() != d.N() || sched.Iterations() < cfg.Iterations {
		return nil, fmt.Errorf("gbm: schedule incompatible with sparse dataset")
	}
	if d.Task != dataset.BinaryClassification {
		return nil, fmt.Errorf("gbm: TrainLogisticSparse requires binary labels, got %v", d.Task)
	}
	m := d.M()
	w := make([]float64, m)
	step := make([]float64, m)
	for t := 0; t < cfg.Iterations; t++ {
		batch := sched.Batch(t)
		mat.ZeroVec(step)
		bU := 0
		for _, i := range batch {
			if removed != nil && removed[i] {
				continue
			}
			bU++
			yi := d.Y[i]
			fv := interp.F(yi * d.X.RowDot(i, w))
			d.X.AddScaledRow(step, i, yi*fv)
		}
		decay := 1 - cfg.Eta*cfg.Lambda
		if bU == 0 {
			mat.ScaleVec(w, decay)
			continue
		}
		// Sparse step: decay touches all coordinates, the data term only the
		// union of the batch rows' supports (already accumulated densely in
		// step; m is large but this mirrors scipy's dense axpy fallback).
		f := cfg.Eta / float64(bU)
		for j := range w {
			w[j] = decay*w[j] + f*step[j]
		}
	}
	return &Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, m, w)}, nil
}

// PredictBinarySparse returns ±1 predictions for a CSR feature matrix.
func (m *Model) PredictBinarySparse(d *dataset.SparseDataset) []float64 {
	w := m.W.Row(0)
	out := make([]float64, d.N())
	for i := range out {
		if d.X.RowDot(i, w) >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}
