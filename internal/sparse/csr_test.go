package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCSR(t *testing.T, rows, cols int, entries []Triplet) *CSR {
	t.Helper()
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randTriplets(rng *rand.Rand, rows, cols, nnz int) []Triplet {
	out := make([]Triplet, nnz)
	for i := range out {
		out[i] = Triplet{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: rng.NormFloat64()}
	}
	return out
}

func denseOf(m *CSR) [][]float64 {
	rows, cols := m.Dims()
	d := make([][]float64, rows)
	for i := range d {
		d[i] = make([]float64, cols)
		cs, vs := m.Row(i)
		for k, c := range cs {
			d[i][c] = vs[k]
		}
	}
	return d
}

func TestNewCSRBasics(t *testing.T) {
	m := mustCSR(t, 3, 4, []Triplet{{0, 1, 2}, {2, 3, -1}, {0, 1, 3}})
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (duplicates summed)", m.NNZ())
	}
	if m.At(0, 1) != 5 {
		t.Fatalf("At(0,1) = %v, want 5", m.At(0, 1))
	}
	if m.At(1, 1) != 0 {
		t.Fatalf("At(1,1) = %v, want 0", m.At(1, 1))
	}
	if m.At(2, 3) != -1 {
		t.Fatalf("At(2,3) = %v", m.At(2, 3))
	}
}

func TestNewCSRDropsExplicitZeros(t *testing.T) {
	m := mustCSR(t, 2, 2, []Triplet{{0, 0, 1}, {0, 0, -1}, {1, 1, 0}})
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0", m.NNZ())
	}
}

func TestNewCSRValidation(t *testing.T) {
	if _, err := NewCSR(0, 3, nil); err == nil {
		t.Fatal("expected error for zero rows")
	}
	if _, err := NewCSR(2, 2, []Triplet{{5, 0, 1}}); err == nil {
		t.Fatal("expected error for out-of-bounds row")
	}
	if _, err := NewCSR(2, 2, []Triplet{{0, -1, 1}}); err == nil {
		t.Fatal("expected error for negative col")
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		m, err := NewCSR(rows, cols, randTriplets(rng, rows, cols, rng.Intn(20)))
		if err != nil {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVec(x)
		d := denseOf(m)
		for i := 0; i < rows; i++ {
			var want float64
			for j := 0; j < cols; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(got[i]-want) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVecTMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		m, err := NewCSR(rows, cols, randTriplets(rng, rows, cols, rng.Intn(20)))
		if err != nil {
			return false
		}
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVecT(x)
		d := denseOf(m)
		for j := 0; j < cols; j++ {
			var want float64
			for i := 0; i < rows; i++ {
				want += d[i][j] * x[i]
			}
			if math.Abs(got[j]-want) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowDotAndAddScaledRow(t *testing.T) {
	m := mustCSR(t, 2, 3, []Triplet{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}})
	x := []float64{10, 20, 30}
	if got := m.RowDot(0, x); got != 70 {
		t.Fatalf("RowDot = %v, want 70", got)
	}
	dst := make([]float64, 3)
	m.AddScaledRow(dst, 1, 2)
	if dst[1] != 6 || dst[0] != 0 || dst[2] != 0 {
		t.Fatalf("AddScaledRow = %v", dst)
	}
}

func TestDensityAndFootprint(t *testing.T) {
	m := mustCSR(t, 10, 10, []Triplet{{0, 0, 1}, {5, 5, 1}})
	if d := m.Density(); math.Abs(d-0.02) > 1e-12 {
		t.Fatalf("Density = %v", d)
	}
	if m.FootprintBytes() <= 0 {
		t.Fatal("FootprintBytes should be positive")
	}
}
