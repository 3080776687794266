package repro

// Serial-vs-parallel kernel benchmarks. Each Benchmark*Parallel measures a
// serial baseline (pool forced to one worker) inside the benchmark, then
// times the same operation with the full worker pool and reports the ratio
// as a "speedup" metric, so one run on a multi-core machine shows whether
// the parallel kernels pay off:
//
//	go test -bench=Parallel -benchtime=10x
//
// On a single-core host GOMAXPROCS is 1, every kernel falls back to its
// serial path, and the reported speedup is ~1.0 by construction.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/sparse"
)

// benchSerialVsParallel times op with one worker, then with the full pool in
// the measured loop, and reports serial/parallel as "speedup".
func benchSerialVsParallel(b *testing.B, op func()) {
	b.Helper()
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	op() // warm caches
	serial := time.Duration(1 << 62)
	for r := 0; r < 3; r++ {
		start := time.Now()
		op()
		if d := time.Since(start); d < serial {
			serial = d
		}
	}
	par.SetWorkers(0) // full GOMAXPROCS parallelism
	op()              // warm the pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if perOp := b.Elapsed() / time.Duration(b.N); perOp > 0 {
		b.ReportMetric(float64(serial)/float64(perOp), "speedup")
	}
}

func randDense(rng *rand.Rand, rows, cols int) *mat.Dense {
	d := mat.NewDense(rows, cols)
	for i := range d.Data() {
		d.Data()[i] = rng.NormFloat64()
	}
	return d
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// BenchmarkMatVecParallel: dense m*x over 100k rows — the provenance-cache
// apply shape of the PrIU update loop.
func BenchmarkMatVecParallel(b *testing.B) {
	rng := benchRand(1)
	const rows, cols = 100_000, 64
	m := randDense(rng, rows, cols)
	x := randVec(rng, cols)
	dst := make([]float64, rows)
	benchSerialVsParallel(b, func() { m.MulVecInto(dst, x) })
}

// BenchmarkMatVecTParallel: dense mᵀ*x over 100k rows — the gradient
// aggregation shape (MapReduceDet with per-chunk accumulators).
func BenchmarkMatVecTParallel(b *testing.B) {
	rng := benchRand(2)
	const rows, cols = 100_000, 64
	m := randDense(rng, rows, cols)
	x := randVec(rng, rows)
	dst := make([]float64, cols)
	benchSerialVsParallel(b, func() { m.MulVecTInto(dst, x) })
}

// BenchmarkGramParallel: XᵀX over 100k rows — the PrIU-opt offline shape and
// the heaviest dense reduction in the stack.
func BenchmarkGramParallel(b *testing.B) {
	rng := benchRand(3)
	const rows, cols = 100_000, 32
	m := randDense(rng, rows, cols)
	dst := mat.NewDense(cols, cols)
	benchSerialVsParallel(b, func() { m.GramInto(dst) })
}

// BenchmarkAddScaledParallel: row-blocked in-place AXPY over a large matrix.
func BenchmarkAddScaledParallel(b *testing.B) {
	rng := benchRand(4)
	const rows, cols = 100_000, 64
	m := randDense(rng, rows, cols)
	v := randDense(rng, rows, cols)
	benchSerialVsParallel(b, func() { m.AddScaled(v, 1e-9) })
}

// BenchmarkSpMVParallel: CSR row-parallel SpMV at RCV1-like density.
func BenchmarkSpMVParallel(b *testing.B) {
	rng := benchRand(5)
	const rows, cols, perRow = 200_000, 2_000, 20
	entries := make([]sparse.Triplet, 0, rows*perRow)
	for i := 0; i < rows; i++ {
		for k := 0; k < perRow; k++ {
			entries = append(entries, sparse.Triplet{
				Row: i, Col: rng.Intn(cols), Val: rng.NormFloat64(),
			})
		}
	}
	csr, err := sparse.NewCSR(rows, cols, entries)
	if err != nil {
		b.Fatal(err)
	}
	x := randVec(rng, cols)
	dst := make([]float64, rows)
	benchSerialVsParallel(b, func() { csr.MulVecInto(dst, x) })
}

// BenchmarkSpMVTParallel: CSR mᵀ*x — per-worker dense accumulators merged.
func BenchmarkSpMVTParallel(b *testing.B) {
	rng := benchRand(6)
	const rows, cols, perRow = 200_000, 2_000, 20
	entries := make([]sparse.Triplet, 0, rows*perRow)
	for i := 0; i < rows; i++ {
		for k := 0; k < perRow; k++ {
			entries = append(entries, sparse.Triplet{
				Row: i, Col: rng.Intn(cols), Val: rng.NormFloat64(),
			})
		}
	}
	csr, err := sparse.NewCSR(rows, cols, entries)
	if err != nil {
		b.Fatal(err)
	}
	x := randVec(rng, rows)
	benchSerialVsParallel(b, func() { csr.MulVecT(x) })
}

// BenchmarkMulParallel: dense GEMM, row-parallel over the left operand.
func BenchmarkMulParallel(b *testing.B) {
	rng := benchRand(7)
	const n = 256
	a := randDense(rng, n, n)
	c := randDense(rng, n, n)
	dst := mat.NewDense(n, n)
	benchSerialVsParallel(b, func() { mat.MulInto(dst, a, c) })
}
