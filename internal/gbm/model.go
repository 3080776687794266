package gbm

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// Model holds trained parameters. For linear and binary-logistic regression
// W has one row; for multinomial logistic regression W is q×m (one weight
// vector per class), matching the paper's w = vec([w1..wq]).
type Model struct {
	Task dataset.Task
	// W is the parameter matrix: 1×m (linear/binary) or q×m (multinomial).
	W *mat.Dense
}

// Vec returns the flattened parameter vector vec([w1..wq]) (aliased).
func (m *Model) Vec() []float64 { return m.W.Data() }

// Clone deep-copies the model.
func (m *Model) Clone() *Model { return &Model{Task: m.Task, W: m.W.Clone()} }

// PredictLinear returns xᵀw for every row of x.
func (m *Model) PredictLinear(x *mat.Dense) []float64 {
	return x.MulVec(m.W.Row(0))
}

// PredictBinary returns ±1 class predictions using sign(xᵀw).
func (m *Model) PredictBinary(x *mat.Dense) []float64 {
	scores := x.MulVec(m.W.Row(0))
	for i, s := range scores {
		if s >= 0 {
			scores[i] = 1
		} else {
			scores[i] = -1
		}
	}
	return scores
}

// PredictMulticlass returns argmax_k wₖᵀx class indices.
func (m *Model) PredictMulticlass(x *mat.Dense) []float64 {
	n := x.Rows()
	q := m.W.Rows()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		best, bestScore := 0, math.Inf(-1)
		for k := 0; k < q; k++ {
			s := mat.Dot(m.W.Row(k), row)
			if s > bestScore {
				best, bestScore = k, s
			}
		}
		out[i] = float64(best)
	}
	return out
}

// LinearObjective evaluates the paper's Eq 2: mean squared residual plus
// (λ/2)‖w‖².
func LinearObjective(d *dataset.Dataset, w []float64, lambda float64) float64 {
	n := d.N()
	var loss float64
	for i := 0; i < n; i++ {
		r := d.Y[i] - mat.Dot(d.X.Row(i), w)
		loss += r * r
	}
	loss /= float64(n)
	nw := mat.Norm2(w)
	return loss + lambda/2*nw*nw
}

// LogisticObjective evaluates the paper's Eq 3: mean logistic loss plus
// (λ/2)‖w‖² for ±1 labels.
func LogisticObjective(d *dataset.Dataset, w []float64, lambda float64) float64 {
	n := d.N()
	var loss float64
	for i := 0; i < n; i++ {
		z := d.Y[i] * mat.Dot(d.X.Row(i), w)
		// ln(1+e^{−z}) computed stably.
		if z > 0 {
			loss += math.Log1p(math.Exp(-z))
		} else {
			loss += -z + math.Log1p(math.Exp(z))
		}
	}
	loss /= float64(n)
	nw := mat.Norm2(w)
	return loss + lambda/2*nw*nw
}

// MultinomialObjective evaluates the paper's Eq 4: mean cross-entropy of the
// softmax plus (λ/2)‖vec(W)‖².
func MultinomialObjective(d *dataset.Dataset, w *mat.Dense, lambda float64) float64 {
	n := d.N()
	q := w.Rows()
	var loss float64
	logits := make([]float64, q)
	for i := 0; i < n; i++ {
		row := d.X.Row(i)
		for k := 0; k < q; k++ {
			logits[k] = mat.Dot(w.Row(k), row)
		}
		loss += logSumExp(logits) - logits[int(d.Y[i])]
	}
	loss /= float64(n)
	nw := mat.Norm2(w.Data())
	return loss + lambda/2*nw*nw
}

// logSumExp computes ln Σ e^{z_k} stably.
func logSumExp(z []float64) float64 {
	mx := z[0]
	for _, v := range z[1:] {
		if v > mx {
			mx = v
		}
	}
	var s float64
	for _, v := range z {
		s += math.Exp(v - mx)
	}
	return mx + math.Log(s)
}

// Softmax fills p with the softmax of the logits z.
func Softmax(p, z []float64) {
	mx := z[0]
	for _, v := range z[1:] {
		if v > mx {
			mx = v
		}
	}
	var s float64
	for k, v := range z {
		e := math.Exp(v - mx)
		p[k] = e
		s += e
	}
	for k := range p {
		p[k] /= s
	}
}
