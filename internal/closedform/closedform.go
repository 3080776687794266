// Package closedform implements the "Closed-form" baseline of Sec 6.2: the
// incremental-view-maintenance approach of MauveDB/LINVIEW and related
// systems for linear regression. The intermediate linear aggregates
// M = XᵀX and N = XᵀY are materialized as views; deleting the rows ΔX/ΔY
// updates them by subtraction, and the model parameters are recomputed by
// solving the ridge normal equations
//
//	(2/(n−Δn)·M' + λI)·w = 2/(n−Δn)·N'
//
// which involves the matrix inversion (here: Cholesky solve) the view cannot
// absorb. PrIU-opt's advantage over this baseline (Fig 1) comes from
// replacing the O(m³) solve with the O(min{Δn,m}·m² + τm) eigen path.
package closedform

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

// View materializes the linear-regression aggregates M = XᵀX and N = XᵀY.
type View struct {
	data   *dataset.Dataset
	lambda float64
	m      *mat.Dense
	n      []float64
}

// NewView builds the materialized view (the offline phase).
func NewView(d *dataset.Dataset, lambda float64) (*View, error) {
	if d.Task != dataset.Regression {
		return nil, fmt.Errorf("closedform: requires regression data, got %v", d.Task)
	}
	if lambda < 0 {
		return nil, fmt.Errorf("closedform: negative lambda %v", lambda)
	}
	return &View{data: d, lambda: lambda, m: d.X.Gram(), n: d.X.MulVecT(d.Y)}, nil
}

// Update applies the deletion to the views and solves the normal equations
// for the updated parameters.
func (v *View) Update(removed []int) (*gbm.Model, error) {
	if v.m == nil {
		return nil, fmt.Errorf("closedform: view not initialized")
	}
	mask, ids, err := gbm.Removals(v.data.N(), removed)
	if err != nil {
		return nil, err
	}
	nEff := v.data.N() - len(ids)
	if nEff <= 0 {
		return nil, fmt.Errorf("closedform: removal leaves no samples")
	}
	mDim := v.data.M()
	// M' = M − ΔXᵀΔX, N' = N − ΔXᵀΔY (view subtraction).
	mPrime := v.m.Clone()
	nPrime := mat.CloneVec(v.n)
	for i := 0; i < v.data.N(); i++ {
		if mask == nil || !mask[i] {
			continue
		}
		xi := v.data.X.Row(i)
		mat.AddOuter(mPrime, xi, xi, -1)
		mat.Axpy(nPrime, -v.data.Y[i], xi)
	}
	// Solve (2/n'·M' + λI)·w = 2/n'·N'.
	scale := 2.0 / float64(nEff)
	mPrime.Scale(scale)
	for j := 0; j < mDim; j++ {
		mPrime.Add(j, j, v.lambda)
	}
	mat.ScaleVec(nPrime, scale)
	ch, err := mat.NewCholesky(mPrime)
	if err != nil {
		return nil, fmt.Errorf("closedform: normal equations not SPD: %w", err)
	}
	w := ch.Solve(nPrime)
	return &gbm.Model{Task: dataset.Regression, W: mat.NewDenseData(1, mDim, w)}, nil
}

// FootprintBytes returns the view's memory: O(m²) for M plus O(m) for N.
func (v *View) FootprintBytes() int64 {
	r, c := v.m.Dims()
	return int64(r)*int64(c)*8 + int64(len(v.n))*8
}
