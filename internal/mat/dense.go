// Package mat implements the dense linear-algebra substrate used throughout
// the PrIU reproduction: matrices and vectors backed by flat float64 slices,
// BLAS-like products, and the decompositions (Cholesky, LU, QR, symmetric
// eigendecomposition, SVD) that PrIU, PrIU-opt and the baselines rely on.
//
// The paper's implementation runs on PyTorch/scipy; Go has no standard
// numerical library, so this package is the from-scratch substitute. Only
// operations the algorithms actually need are provided, and all of them are
// deterministic.
package mat

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/par"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero rows×cols matrix.
// It panics if either dimension is not positive.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (row-major, length rows*cols) without copying.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments the element at (i, j) by v.
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the underlying row-major storage (aliased, not copied).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// CopyFrom overwrites m with the contents of src. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: CopyFrom dimension mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Zero sets all elements to zero.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			t.data[j*m.rows+i] = v
		}
	}
	return t
}

// Scale multiplies every element by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddScaled adds s*b to m in place and returns m. Dimensions must match.
// Large matrices are updated row-block-parallel.
func (m *Dense) AddScaled(b *Dense, s float64) *Dense {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: AddScaled dimension mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	par.For(len(m.data), parGrainMem(), func(lo, hi int) {
		dst, src := m.data[lo:hi], b.data[lo:hi]
		for i, v := range src {
			dst[i] += s * v
		}
	})
	return m
}

// Sub subtracts b from m in place and returns m.
func (m *Dense) Sub(b *Dense) *Dense { return m.AddScaled(b, -1) }

// Plus returns m + b as a new matrix.
func (m *Dense) Plus(b *Dense) *Dense { return m.Clone().AddScaled(b, 1) }

// Minus returns m - b as a new matrix.
func (m *Dense) Minus(b *Dense) *Dense { return m.Clone().AddScaled(b, -1) }

// Mul returns the matrix product m*b as a new matrix.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	MulInto(out, m, b)
	return out
}

// MulInto computes dst = a*b. dst must not alias a or b. Rows of dst are
// independent, so large products are computed row-block-parallel; within a
// block the cache-blocked micro-kernel in gemm.go does the work. Results are
// bitwise-deterministic at any worker count.
func MulInto(dst, a, b *Dense) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic("mat: MulInto dimension mismatch")
	}
	par.For(a.rows, parGrain(2*a.cols*b.cols), func(lo, hi int) {
		gemmRows(dst, a, b, lo, hi)
	})
}

// MulVec returns m*x as a new vector of length m.rows.
func (m *Dense) MulVec(x []float64) []float64 {
	out := make([]float64, m.rows)
	m.MulVecInto(out, x)
	return out
}

// MulVecInto computes dst = m*x. dst must have length m.rows and must not
// alias x. Output rows are independent, so large matrices are processed
// row-block-parallel; a matrix within one grain runs the same rows serially
// without allocating.
func (m *Dense) MulVecInto(dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d -> %d", m.rows, m.cols, len(x), len(dst)))
	}
	grain := parGrain(m.cols)
	if m.rows <= grain {
		m.mulVecRows(dst, x, 0, m.rows)
		return
	}
	par.For(m.rows, grain, func(lo, hi int) { m.mulVecRows(dst, x, lo, hi) })
}

// mulVecRows sets dst[i] = row_i·x for i in [lo, hi).
func (m *Dense) mulVecRows(dst, x []float64, lo, hi int) {
	n := m.cols
	i := lo
	// Four rows at a time: four independent dot-product chains share each
	// load of x. Each row still folds j = 0..n−1 in order, so its bits match
	// the one-row tail loop.
	for ; i+4 <= hi; i += 4 {
		r0 := m.data[i*n : (i+1)*n : (i+1)*n]
		r1 := m.data[(i+1)*n : (i+2)*n : (i+2)*n]
		r2 := m.data[(i+2)*n : (i+3)*n : (i+3)*n]
		r3 := m.data[(i+3)*n : (i+4)*n : (i+4)*n]
		var s0, s1, s2, s3 float64
		for j, xv := range x[:n] {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < hi; i++ {
		ri := m.data[i*n : (i+1)*n]
		var s float64
		for j, v := range ri {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MulVecT returns mᵀ*x as a new vector of length m.cols.
func (m *Dense) MulVecT(x []float64) []float64 {
	out := make([]float64, m.cols)
	m.MulVecTInto(out, x)
	return out
}

// MulVecTInto computes dst = mᵀ*x. dst must have length m.cols and must not
// alias x. Rows contribute to the whole output, so large matrices reduce
// per-chunk partial sums with par.MapReduceDet: chunk boundaries and merge
// order are fixed by the shape alone (detGrain), keeping the result
// bitwise-deterministic at any worker count and calibration. The small-matrix
// path stays allocation-free and, being a single chunk, computes the
// identical fold.
func (m *Dense) MulVecTInto(dst, x []float64) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("mat: MulVecT dimension mismatch %dx%d^T * %d -> %d", m.rows, m.cols, len(x), len(dst)))
	}
	grain := detGrain(m.cols)
	if m.rows <= grain {
		for j := range dst {
			dst[j] = 0
		}
		m.addScaledRowsT(dst, x, 0, m.rows)
		return
	}
	acc := par.MapReduceDet(m.rows, grain,
		func() []float64 { return make([]float64, m.cols) },
		func(acc []float64, lo, hi int) []float64 {
			m.addScaledRowsT(acc, x, lo, hi)
			return acc
		},
		func(a, b []float64) []float64 {
			for j, v := range b {
				a[j] += v
			}
			return a
		})
	copy(dst, acc)
}

// addScaledRowsT accumulates Σ_{i∈[lo,hi)} x[i]·row_i into dst.
func (m *Dense) addScaledRowsT(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			dst[j] += xi * v
		}
	}
}

// Gram returns mᵀ*m (the Gram matrix of the columns) as a new cols×cols
// matrix. It exploits symmetry.
func (m *Dense) Gram() *Dense {
	g := NewDense(m.cols, m.cols)
	m.GramInto(g)
	return g
}

// GramInto computes mᵀ*m into dst (dst is overwritten). Only the upper
// triangle is computed — via the 4×4 column-tile kernels in gemm.go — and then
// mirrored. Narrow matrices (cols ≤ gramTallMaxCols, the capture shape)
// parallelize over row chunks with a fixed-order partial-Gram merge
// (par.MapReduceDet, planned by detGrain, partials recycled across calls);
// wide matrices parallelize over disjoint output tiles. Both regimes are
// selected by shape alone and are bitwise-deterministic at any worker count
// and calibration.
func (m *Dense) GramInto(dst *Dense) {
	if dst.rows != m.cols || dst.cols != m.cols {
		panic("mat: GramInto dimension mismatch")
	}
	if m.cols <= gramTallMaxCols {
		grain := detGrain(m.cols * m.cols)
		if m.rows <= grain {
			dst.Zero()
			gramChunkUpper(dst, m, 0, m.rows)
		} else {
			acc := par.MapReduceDet(m.rows, grain,
				func() *Dense { return gramPartial(m.cols) },
				func(acc *Dense, lo, hi int) *Dense {
					gramChunkUpper(acc, m, lo, hi)
					return acc
				},
				func(a, b *Dense) *Dense {
					for i, v := range b.data {
						a.data[i] += v
					}
					gramPartials.Put(b)
					return a
				})
			dst.CopyFrom(acc)
			gramPartials.Put(acc)
		}
		mirrorLower(dst)
		return
	}
	dst.Zero()
	tiles := upperTiles((m.cols + 3) / 4)
	rb := gramRowBlock(m.cols)
	for r0 := 0; r0 < m.rows; r0 += rb {
		r1 := r0 + rb
		if r1 > m.rows {
			r1 = m.rows
		}
		par.For(len(tiles), parGrain(32*(r1-r0)), func(lo, hi int) {
			for t := lo; t < hi; t++ {
				gramColTile(dst, m, int(tiles[t][0])*4, int(tiles[t][1])*4, r0, r1)
			}
		})
	}
	mirrorLower(dst)
}

// gramPartials recycles the per-chunk partial Grams of GramInto's narrow
// regime. Capture calls GramInto thousands of times with ~20 chunks each;
// without reuse every call allocated, zeroed and dropped that many m×m
// matrices.
var gramPartials sync.Pool

// gramPartial returns a zeroed n×n partial Gram, recycled when the pool holds
// one large enough.
func gramPartial(n int) *Dense {
	if p, ok := gramPartials.Get().(*Dense); ok && cap(p.data) >= n*n {
		p.rows, p.cols, p.data = n, n, p.data[:n*n]
		p.Zero()
		return p
	}
	return NewDense(n, n)
}

// RowGram returns m*mᵀ (the Gram matrix of the rows) as a new rows×rows
// matrix.
func (m *Dense) RowGram() *Dense {
	g := NewDense(m.rows, m.rows)
	m.RowGramInto(g)
	return g
}

// RowGramInto computes m*mᵀ into dst (dst is overwritten). Each element is a
// dot product of two contiguous rows, so the kernel tiles the upper triangle
// of the output 4×4, folds over the columns in registers, and mirrors. Output
// tiles are disjoint, so the parallel loop is bitwise-deterministic at any
// worker count.
func (m *Dense) RowGramInto(dst *Dense) {
	if dst.rows != m.rows || dst.cols != m.rows {
		panic("mat: RowGramInto dimension mismatch")
	}
	dst.Zero()
	tiles := upperTiles((m.rows + 3) / 4)
	par.For(len(tiles), parGrain(32*m.cols), func(lo, hi int) {
		for t := lo; t < hi; t++ {
			rowGramTile(dst, m, int(tiles[t][0])*4, int(tiles[t][1])*4)
		}
	})
	mirrorLower(dst)
}

// AddOuter accumulates s * x*yᵀ into dst. len(x) must equal dst.rows and
// len(y) must equal dst.cols.
func AddOuter(dst *Dense, x, y []float64, s float64) {
	if len(x) != dst.rows || len(y) != dst.cols {
		panic("mat: AddOuter dimension mismatch")
	}
	n := dst.cols
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		f := s * xv
		di := dst.data[i*n : (i+1)*n]
		for j, yv := range y {
			di[j] += f * yv
		}
	}
}

// Equal reports whether m and b have identical dimensions and all elements
// within tol of each other.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders the matrix for debugging; large matrices are summarized.
func (m *Dense) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("Dense{%dx%d, fro=%.4g}", m.rows, m.cols, m.FrobeniusNorm())
	}
	s := fmt.Sprintf("Dense{%dx%d:", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		s += fmt.Sprintf(" %v", m.Row(i))
	}
	return s + "}"
}
