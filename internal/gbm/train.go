package gbm

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/interp"
	"repro/internal/mat"
)

// Trainers implement the update rules of the paper's Eq 5 (linear), Eq 6
// (binary logistic) and the softmax analogue (multinomial), replaying a
// shared Schedule. A non-nil removed mask (see Removals) turns a trainer into
// the BaseL retraining baseline: removed samples are excluded from every
// mini-batch and the batch denominator becomes the survivor count B_U^(t)
// (Eq 12/13).

// TrainLinear runs mb-SGD for ridge linear regression (Eq 5) and returns the
// final model. removed may be nil.
func TrainLinear(d *dataset.Dataset, cfg Config, sched *Schedule, removed []bool) (*Model, error) {
	if err := checkTrainArgs(d, cfg, sched); err != nil {
		return nil, err
	}
	m := d.M()
	w := make([]float64, m)
	grad := make([]float64, m)
	for t := 0; t < cfg.Iterations; t++ {
		batch := sched.Batch(t)
		mat.ZeroVec(grad)
		bU := 0
		for _, i := range batch {
			if removed != nil && removed[i] {
				continue
			}
			bU++
			xi := d.X.Row(i)
			r := mat.Dot(xi, w) - d.Y[i]
			mat.Axpy(grad, r, xi)
		}
		decay := 1 - cfg.Eta*cfg.Lambda
		if bU == 0 {
			// Every batch member was removed: only the regularizer acts.
			mat.ScaleVec(w, decay)
			continue
		}
		f := 2 * cfg.Eta / float64(bU)
		for j := range w {
			w[j] = decay*w[j] - f*grad[j]
		}
	}
	return &Model{Task: dataset.Regression, W: mat.NewDenseData(1, m, w)}, nil
}

// TrainLogistic runs mb-SGD for L2-regularized binary logistic regression
// with the exact sigmoid (Eq 6). removed may be nil.
func TrainLogistic(d *dataset.Dataset, cfg Config, sched *Schedule, removed []bool) (*Model, error) {
	if err := checkTrainArgs(d, cfg, sched); err != nil {
		return nil, err
	}
	if d.Task != dataset.BinaryClassification {
		return nil, fmt.Errorf("gbm: TrainLogistic requires binary labels, got %v", d.Task)
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
			xi := d.X.Row(i)
			yi := d.Y[i]
			// f(y·wᵀx) = 1 − σ(y·wᵀx); gradient contribution −y·x·f(…).
			fv := interp.F(yi * mat.Dot(xi, w))
			mat.Axpy(step, yi*fv, xi)
		}
		decay := 1 - cfg.Eta*cfg.Lambda
		if bU == 0 {
			mat.ScaleVec(w, decay)
			continue
		}
		f := cfg.Eta / float64(bU)
		for j := range w {
			w[j] = decay*w[j] + f*step[j]
		}
	}
	return &Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, m, w)}, nil
}

// TrainMultinomial runs mb-SGD for L2-regularized multinomial logistic
// regression with the exact softmax. removed may be nil.
func TrainMultinomial(d *dataset.Dataset, cfg Config, sched *Schedule, removed []bool) (*Model, error) {
	if err := checkTrainArgs(d, cfg, sched); err != nil {
		return nil, err
	}
	if d.Task != dataset.MultiClassification {
		return nil, fmt.Errorf("gbm: TrainMultinomial requires multiclass labels, got %v", d.Task)
	}
	m, q := d.M(), d.Classes
	w := mat.NewDense(q, m)
	grad := mat.NewDense(q, m)
	logits := make([]float64, q)
	probs := make([]float64, q)
	for t := 0; t < cfg.Iterations; t++ {
		batch := sched.Batch(t)
		grad.Zero()
		bU := 0
		for _, i := range batch {
			if removed != nil && removed[i] {
				continue
			}
			bU++
			xi := d.X.Row(i)
			for k := 0; k < q; k++ {
				logits[k] = mat.Dot(w.Row(k), xi)
			}
			Softmax(probs, logits)
			yi := int(d.Y[i])
			for k := 0; k < q; k++ {
				coef := probs[k]
				if k == yi {
					coef -= 1
				}
				mat.Axpy(grad.Row(k), coef, xi)
			}
		}
		decay := 1 - cfg.Eta*cfg.Lambda
		if bU == 0 {
			w.Scale(decay)
			continue
		}
		f := cfg.Eta / float64(bU)
		wd, gd := w.Data(), grad.Data()
		for j := range wd {
			wd[j] = decay*wd[j] - f*gd[j]
		}
	}
	return &Model{Task: dataset.MultiClassification, W: w}, nil
}

func checkTrainArgs(d *dataset.Dataset, cfg Config, sched *Schedule) error {
	if err := cfg.Validate(d.N()); err != nil {
		return err
	}
	if sched == nil {
		return fmt.Errorf("gbm: nil schedule")
	}
	if sched.N() != d.N() {
		return fmt.Errorf("gbm: schedule built for n=%d, dataset has n=%d", sched.N(), d.N())
	}
	if sched.Iterations() < cfg.Iterations {
		return fmt.Errorf("gbm: schedule has %d iterations, config wants %d", sched.Iterations(), cfg.Iterations)
	}
	return nil
}
