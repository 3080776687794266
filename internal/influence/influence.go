// Package influence implements the INFL baseline of the paper's Sec 6.2: the
// influence-function method of Koh & Liang extended (as the paper describes)
// from single-sample to multi-sample deletion.
//
// For an L2-regularized empirical risk h(w) = (1/n)Σ hᵢ(w) + (λ/2)‖w‖²
// minimized at w*, removing the sample set R perturbs the optimum by
// (first-order Taylor expansion of the optimality condition):
//
//	w_new ≈ w* + H⁻¹ · (1/(n−Δn)) · Σ_{i∈R} ∇hᵢ(w*)   −   correction terms
//
// where H is the Hessian of the objective at w*. Concretely we solve the
// stationarity of the leave-R-out objective linearized at w*:
//
//	∇g(w*) + H_g·(w_new − w*) = 0  ⇒  w_new = w* − H_g⁻¹ ∇g(w*)
//
// with g the objective over the surviving samples and H_g its Hessian at w*
// (one Newton step from w*). This is exactly the "lower-order Taylor terms
// only" approximation the paper attributes to INFL, and it degrades as Δn
// grows — the effect Table 4 and Figures 1-3 measure.
package influence

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/interp"
	"repro/internal/mat"
)

// UpdateLinear computes the INFL parameter update for ridge linear
// regression: one Newton step of the leave-R-out objective from w*.
// The Hessian of g is (2/(n−Δn))·Σ_{i∉R} xᵢxᵢᵀ + λI (exact for quadratics,
// so INFL's error here comes only from w* being an SGD iterate rather than
// the exact optimum).
func UpdateLinear(d *dataset.Dataset, model *gbm.Model, lambda float64, removed []int) (*gbm.Model, error) {
	if d.Task != dataset.Regression {
		return nil, fmt.Errorf("influence: UpdateLinear requires regression data, got %v", d.Task)
	}
	mask, ids, err := gbm.Removals(d.N(), removed)
	if err != nil {
		return nil, err
	}
	n, m := d.N(), d.M()
	nEff := n - len(ids)
	if nEff <= 0 {
		return nil, fmt.Errorf("influence: removal leaves no samples")
	}
	w := model.W.Row(0)
	hess := mat.NewDense(m, m)
	grad := make([]float64, m)
	for i := 0; i < n; i++ {
		if mask != nil && mask[i] {
			continue
		}
		xi := d.X.Row(i)
		mat.AddOuter(hess, xi, xi, 2.0/float64(nEff))
		mat.Axpy(grad, 2.0/float64(nEff)*(mat.Dot(xi, w)-d.Y[i]), xi)
	}
	for j := 0; j < m; j++ {
		hess.Add(j, j, lambda)
		grad[j] += lambda * w[j]
	}
	step, err := solveSPD(hess, grad)
	if err != nil {
		return nil, err
	}
	out := mat.CloneVec(w)
	mat.Axpy(out, -1, step)
	return &gbm.Model{Task: dataset.Regression, W: mat.NewDenseData(1, m, out)}, nil
}

// UpdateLogistic computes the INFL update for binary logistic regression:
// one Newton step of the leave-R-out logistic objective from w*, using the
// exact Hessian (1/(n−Δn))·Σ_{i∉R} σ′·xᵢxᵢᵀ + λI at w*.
func UpdateLogistic(d *dataset.Dataset, model *gbm.Model, lambda float64, removed []int) (*gbm.Model, error) {
	if d.Task != dataset.BinaryClassification {
		return nil, fmt.Errorf("influence: UpdateLogistic requires binary data, got %v", d.Task)
	}
	mask, ids, err := gbm.Removals(d.N(), removed)
	if err != nil {
		return nil, err
	}
	n, m := d.N(), d.M()
	nEff := n - len(ids)
	if nEff <= 0 {
		return nil, fmt.Errorf("influence: removal leaves no samples")
	}
	w := model.W.Row(0)
	hess := mat.NewDense(m, m)
	grad := make([]float64, m)
	inv := 1.0 / float64(nEff)
	for i := 0; i < n; i++ {
		if mask != nil && mask[i] {
			continue
		}
		xi := d.X.Row(i)
		yi := d.Y[i]
		z := yi * mat.Dot(xi, w)
		// ∇hᵢ = −yᵢ·xᵢ·f(z); ∇²hᵢ = σ(z)σ(−z)·xᵢxᵢᵀ.
		fv := interp.F(z)
		mat.Axpy(grad, -inv*yi*fv, xi)
		mat.AddOuter(hess, xi, xi, inv*interp.Sigmoid(z)*interp.Sigmoid(-z))
	}
	for j := 0; j < m; j++ {
		hess.Add(j, j, lambda)
		grad[j] += lambda * w[j]
	}
	step, err := solveSPD(hess, grad)
	if err != nil {
		return nil, err
	}
	out := mat.CloneVec(w)
	mat.Axpy(out, -1, step)
	return &gbm.Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, m, out)}, nil
}

// UpdateMultinomial computes the INFL update for multinomial logistic
// regression using the block-diagonal Hessian approximation (per-class
// pₖ(1−pₖ) curvature; cross-class blocks dropped), a standard practical
// simplification that keeps the solve at q independent m×m systems.
func UpdateMultinomial(d *dataset.Dataset, model *gbm.Model, lambda float64, removed []int) (*gbm.Model, error) {
	if d.Task != dataset.MultiClassification {
		return nil, fmt.Errorf("influence: UpdateMultinomial requires multiclass data, got %v", d.Task)
	}
	mask, ids, err := gbm.Removals(d.N(), removed)
	if err != nil {
		return nil, err
	}
	n, m := d.N(), d.M()
	q := model.W.Rows()
	nEff := n - len(ids)
	if nEff <= 0 {
		return nil, fmt.Errorf("influence: removal leaves no samples")
	}
	inv := 1.0 / float64(nEff)
	out := model.W.Clone()
	logits := make([]float64, q)
	probs := make([]float64, q)
	hess := make([]*mat.Dense, q)
	grads := make([][]float64, q)
	for k := 0; k < q; k++ {
		hess[k] = mat.NewDense(m, m)
		grads[k] = make([]float64, m)
	}
	for i := 0; i < n; i++ {
		if mask != nil && mask[i] {
			continue
		}
		xi := d.X.Row(i)
		for k := 0; k < q; k++ {
			logits[k] = mat.Dot(model.W.Row(k), xi)
		}
		gbm.Softmax(probs, logits)
		yi := int(d.Y[i])
		for k := 0; k < q; k++ {
			coef := probs[k]
			if k == yi {
				coef -= 1
			}
			mat.Axpy(grads[k], inv*coef, xi)
			mat.AddOuter(hess[k], xi, xi, inv*probs[k]*(1-probs[k]))
		}
	}
	for k := 0; k < q; k++ {
		for j := 0; j < m; j++ {
			hess[k].Add(j, j, lambda)
			grads[k][j] += lambda * model.W.At(k, j)
		}
		step, err := solveSPD(hess[k], grads[k])
		if err != nil {
			return nil, err
		}
		row := out.Row(k)
		mat.Axpy(row, -1, step)
	}
	return &gbm.Model{Task: dataset.MultiClassification, W: out}, nil
}

// solveSPD solves H·x = b for a symmetric positive definite H, falling back
// to LU if the Cholesky factorization fails due to round-off.
func solveSPD(h *mat.Dense, b []float64) ([]float64, error) {
	if ch, err := mat.NewCholesky(h); err == nil {
		return ch.Solve(b), nil
	}
	lu, err := mat.NewLU(h)
	if err != nil {
		return nil, err
	}
	return lu.Solve(b), nil
}
