package main

import (
	"math/rand"
	"time"

	"repro/internal/mat"
	"repro/internal/sparse"
)

// kernelShape is the operand shape a workload's updates run the kernels at:
// m features, B rows per mini-batch, and a CSR operand of rows × cols with
// nnz stored values per row.
type kernelShape struct {
	m, b            int
	rows, cols, nnz int
}

// timeKernels times direct calls to the dense and sparse kernels at the
// workload's shape: mat.MulInto on m×m operands, GramInto of a B×m batch,
// NewEigenSym of an m×m Gram matrix and CSR.MulVec. Each figure is the
// median of several timed batches.
func timeKernels(o *outcome, sh kernelShape, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	fill := func(d *mat.Dense) *mat.Dense {
		for i := range d.Data() {
			d.Data()[i] = rng.NormFloat64()
		}
		return d
	}
	a, b, dst := fill(mat.NewDense(sh.m, sh.m)), fill(mat.NewDense(sh.m, sh.m)), mat.NewDense(sh.m, sh.m)
	batch, gram := fill(mat.NewDense(sh.b, sh.m)), mat.NewDense(sh.m, sh.m)
	o.set("mat.gemm_us", perCall(func() { mat.MulInto(dst, a, b) })*1e6)
	o.set("mat.gram_us", perCall(func() { batch.GramInto(gram) })*1e6)
	var eigErr error
	o.set("mat.eigen_ms", perCall(func() {
		if _, err := mat.NewEigenSym(gram); err != nil {
			eigErr = err
		}
	})*1e3)
	if eigErr != nil {
		return eigErr
	}
	trips := make([]sparse.Triplet, 0, sh.rows*sh.nnz)
	for i := 0; i < sh.rows; i++ {
		for _, c := range rng.Perm(sh.cols)[:sh.nnz] {
			trips = append(trips, sparse.Triplet{Row: i, Col: c, Val: rng.NormFloat64()})
		}
	}
	x, err := sparse.NewCSR(sh.rows, sh.cols, trips)
	if err != nil {
		return err
	}
	v, out := make([]float64, sh.cols), make([]float64, sh.rows)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	o.set("sparse.spmv_us", perCall(func() { x.MulVecInto(out, v) })*1e6)
	return nil
}

// perCall returns the median seconds per call over 7 batches, each sized to
// take about 10ms (one call when a call takes longer).
func perCall(fn func()) float64 {
	start := time.Now()
	fn()
	n := 1 + int(10*time.Millisecond/max(time.Since(start), time.Microsecond))
	var per []float64
	for r := 0; r < 7; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, time.Since(start).Seconds()/float64(n))
	}
	return median(per)
}
