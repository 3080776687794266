// Package sparse provides a compressed sparse row (CSR) matrix, the substrate
// for the paper's sparse-dataset path (RCV1 in Sec 5.3/6): for sparse
// training data PrIU uses only the linearized update rule, exploiting sparse
// matrix-vector products, because SVD factors of sparse provenance matrices
// are dense and would destroy the memory advantage.
package sparse

import (
	"fmt"
	"sort"

	"repro/internal/par"
)

// CSR is a compressed sparse row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// Triplet is a coordinate-form entry used to build CSR matrices.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewCSR builds a CSR matrix from triplets. Duplicate (row, col) entries are
// summed. Entries with zero value are kept out of the structure.
func NewCSR(rows, cols int, entries []Triplet) (*CSR, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sparse: invalid dimensions %dx%d", rows, cols)
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of bounds for %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Triplet, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.colIdx = append(m.colIdx, sorted[i].Col)
			m.vals = append(m.vals, v)
			m.rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m, nil
}

// Dims returns the matrix dimensions.
func (m *CSR) Dims() (rows, cols int) { return m.rows, m.cols }

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.vals) }

// Density returns NNZ / (rows*cols).
func (m *CSR) Density() float64 {
	return float64(m.NNZ()) / (float64(m.rows) * float64(m.cols))
}

// At returns the element at (i, j) with a binary search over row i.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.vals[k]
	}
	return 0
}

// Row returns the column indices and values of row i, aliasing internal
// storage.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// RowDot returns the inner product of row i with the dense vector x.
func (m *CSR) RowDot(i int, x []float64) float64 {
	if len(x) != m.cols {
		panic("sparse: RowDot length mismatch")
	}
	var s float64
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	for k := lo; k < hi; k++ {
		s += m.vals[k] * x[m.colIdx[k]]
	}
	return s
}

// AddScaledRow accumulates a * row_i into dst.
func (m *CSR) AddScaledRow(dst []float64, i int, a float64) {
	if len(dst) != m.cols {
		panic("sparse: AddScaledRow length mismatch")
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	for k := lo; k < hi; k++ {
		dst[m.colIdx[k]] += a * m.vals[k]
	}
}

// rowGrain returns the row-chunk grain so each chunk carries roughly
// par.MinWork stored non-zeros.
func (m *CSR) rowGrain() int {
	if m.rows == 0 {
		return 1
	}
	return par.Grain(m.NNZ() / m.rows)
}

// MulVec returns m*x as a dense vector.
func (m *CSR) MulVec(x []float64) []float64 {
	out := make([]float64, m.rows)
	m.MulVecInto(out, x)
	return out
}

// MulVecInto computes dst = m*x. dst must have length m.rows and must not
// alias x. Output rows are independent, so large matrices run row-parallel;
// the chunk grain adapts to the average row density.
func (m *CSR) MulVecInto(dst, x []float64) {
	if len(x) != m.cols {
		panic("sparse: MulVec length mismatch")
	}
	if len(dst) != m.rows {
		panic("sparse: MulVec output length mismatch")
	}
	par.For(m.rows, m.rowGrain(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = m.RowDot(i, x)
		}
	})
}

// MulVecT returns mᵀ*x as a dense vector. Rows scatter into the whole output,
// so each chunk fills a private dense accumulator over a row block; chunk
// boundaries and the fold order depend only on the shape (par.DetGrain) —
// never on the worker count or the work cutoff — so the result is
// bitwise identical at any pool size and on any host
// (small matrices collapse to one chunk and scatter serially).
func (m *CSR) MulVecT(x []float64) []float64 {
	if len(x) != m.rows {
		panic("sparse: MulVecT length mismatch")
	}
	grain := 1
	if m.rows > 0 {
		grain = par.DetGrain(m.NNZ() / m.rows)
	}
	return par.MapReduceDet(m.rows, grain,
		func() []float64 { return make([]float64, m.cols) },
		func(acc []float64, lo, hi int) []float64 {
			for i := lo; i < hi; i++ {
				if x[i] == 0 {
					continue
				}
				m.AddScaledRow(acc, i, x[i])
			}
			return acc
		},
		func(a, b []float64) []float64 {
			for j, v := range b {
				a[j] += v
			}
			return a
		})
}

// FootprintBytes estimates the memory the structure occupies, used by the
// memory-consumption experiment (Table 3).
func (m *CSR) FootprintBytes() int64 {
	return int64(len(m.rowPtr))*8 + int64(len(m.colIdx))*8 + int64(len(m.vals))*8
}
