package gbm

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/interp"
	"repro/internal/mat"
	"repro/internal/sparse"
)

// SparseSGD steps mini-batch SGD for L2-regularized logistic regression over
// CSR rows in O(nnz(batch)) + O(1) per iteration, holding the weights as
// w = s·v (Bottou, "Stochastic Gradient Descent Tricks", 2012, §5.1): the
// decay w ← (1−ηλ)·w only rescales s, dot products read s·(xᵢ·v), and the
// data term scatters into v through 1/s, so no step touches the coordinates
// outside the batch's support. BaseL retraining, sparse capture and the PrIU
// replay all step through it, so the three share one rounding.
type SparseSGD struct {
	x          *sparse.CSR
	v          []float64
	s          float64
	decay, eta float64
	rows       []int
	coef       []float64
}

// The scale is folded back into v (O(m), rare) once it leaves
// [sgdMinScale, sgdMaxScale], long before v itself could overflow.
const (
	sgdMinScale = 1e-100
	sgdMaxScale = 1e100
)

// NewSparseSGD starts from w = 0 over the rows of x with cfg's η, λ and
// batch size.
func NewSparseSGD(x *sparse.CSR, cfg Config) *SparseSGD {
	_, m := x.Dims()
	return &SparseSGD{
		x:     x,
		v:     make([]float64, m),
		s:     1,
		decay: 1 - cfg.Eta*cfg.Lambda,
		eta:   cfg.Eta,
		rows:  make([]int, 0, cfg.BatchSize),
		coef:  make([]float64, 0, cfg.BatchSize),
	}
}

// Dot returns xᵢ·w at the current weights.
func (g *SparseSGD) Dot(i int) float64 { return g.s * g.x.RowDot(i, g.v) }

// Add queues row i with data-term coefficient c for the next Step. Every Add
// of an iteration precedes its Step, so all of the iteration's dot products
// read the same weights.
func (g *SparseSGD) Add(i int, c float64) {
	g.rows = append(g.rows, i)
	g.coef = append(g.coef, c)
}

// Step applies w ← (1−ηλ)·w + (η/b)·Σₖ cₖ·x_{iₖ} over the b queued rows in
// queue order, and empties the queue. With nothing queued only the decay
// acts.
func (g *SparseSGD) Step() {
	if g.decay == 0 {
		mat.ZeroVec(g.v)
		g.s = 1
	} else {
		g.s *= g.decay
		if a := math.Abs(g.s); a < sgdMinScale || a > sgdMaxScale {
			mat.ScaleVec(g.v, g.s)
			g.s = 1
		}
	}
	if len(g.rows) == 0 {
		return
	}
	f := g.eta / float64(len(g.rows)) / g.s
	for k, i := range g.rows {
		g.x.AddScaledRow(g.v, i, f*g.coef[k])
	}
	g.rows, g.coef = g.rows[:0], g.coef[:0]
}

// Weights folds s into v and returns w, which aliases g's state: a later
// Step changes it.
func (g *SparseSGD) Weights() []float64 {
	if g.s != 1 {
		mat.ScaleVec(g.v, g.s)
		g.s = 1
	}
	return g.v
}

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
	g := NewSparseSGD(d.X, cfg)
	for t := 0; t < cfg.Iterations; t++ {
		for _, i := range sched.Batch(t) {
			if removed != nil && removed[i] {
				continue
			}
			// f(y·wᵀx) = 1 − σ(y·wᵀx); gradient contribution −y·x·f(…).
			yi := d.Y[i]
			g.Add(i, yi*interp.F(yi*g.Dot(i)))
		}
		g.Step()
	}
	return &Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, d.M(), g.Weights())}, nil
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
