package mat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// mulRef is the scalar reference product used to validate the blocked kernel.
func mulRef(a, b *Dense) *Dense {
	ar, ak := a.Dims()
	_, bc := b.Dims()
	out := NewDense(ar, bc)
	for i := 0; i < ar; i++ {
		for j := 0; j < bc; j++ {
			var s float64
			for k := 0; k < ak; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func gramRef(m *Dense) *Dense {
	rows, cols := m.Dims()
	out := NewDense(cols, cols)
	for i := 0; i < cols; i++ {
		for j := 0; j < cols; j++ {
			var s float64
			for r := 0; r < rows; r++ {
				s += m.At(r, i) * m.At(r, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func rowGramRef(m *Dense) *Dense {
	rows, cols := m.Dims()
	out := NewDense(rows, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < rows; j++ {
			var s float64
			for c := 0; c < cols; c++ {
				s += m.At(i, c) * m.At(j, c)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func maxAbsDiff(a, b *Dense) float64 {
	var mx float64
	for i, v := range a.data {
		if d := math.Abs(v - b.data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func TestMulIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Shapes chosen to hit every micro-kernel edge: tiny, non-multiples of 4
	// in every dimension, and k > gemmKC for the multi-panel path.
	for _, s := range [][3]int{
		{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 9, 6},
		{17, 33, 29}, {64, 40, 50}, {23, 300, 31},
	} {
		a := randDense(rng, s[0], s[1])
		b := randDense(rng, s[1], s[2])
		got := a.Mul(b)
		want := mulRef(a, b)
		if d := maxAbsDiff(got, want); d > 1e-11 {
			t.Errorf("MulInto %v: max diff %g vs reference", s, d)
		}
	}
}

func TestGramIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Shapes covering both regimes: narrow (row-chunk MapReduceDet, the
	// capture shape) and wide (output-tile parallelism), plus edge tiles.
	for _, s := range [][2]int{
		{5, 4}, {50, 7}, {500, 37}, {64, 300}, {3, 261},
	} {
		m := randDense(rng, s[0], s[1])
		got := m.Gram()
		want := gramRef(m)
		if d := maxAbsDiff(got, want); d > 1e-10 {
			t.Errorf("GramInto %v: max diff %g vs reference", s, d)
		}
		// Symmetry must be exact (mirrored, not recomputed).
		for i := 0; i < s[1]; i++ {
			for j := 0; j < i; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("GramInto %v: asymmetric at (%d,%d)", s, i, j)
				}
			}
		}
	}
}

// TestGramIntoReusesPartials: the narrow regime's per-chunk partial Grams
// are recycled across calls, so a call's allocations do not grow with its
// chunk count. The capture shape (B=200 rows, m=54) plans 19 chunks.
func TestGramIntoReusesPartials(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	rng := rand.New(rand.NewSource(15))
	m := randDense(rng, 200, 54)
	dst := NewDense(54, 54)
	grain := detGrain(54 * 54)
	chunks := (200 + grain - 1) / grain
	if chunks < 16 {
		t.Fatalf("shape plans %d chunks, want a many-chunk reduction", chunks)
	}
	for _, w := range []int{1, 2} {
		prev := par.SetWorkers(w)
		m.GramInto(dst) // fill the pool
		allocs := testing.AllocsPerRun(20, func() { m.GramInto(dst) })
		par.SetWorkers(prev)
		// What remains is the reduction's fixed bookkeeping (accumulator
		// slice, closures, pool dispatch); a fresh partial per chunk would
		// cost two allocations each.
		if allocs >= float64(chunks) {
			t.Errorf("workers=%d: %.0f allocs per GramInto over %d chunks", w, allocs, chunks)
		}
	}
}

func TestRowGramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range [][2]int{
		{4, 4}, {7, 50}, {37, 300}, {261, 3},
	} {
		m := randDense(rng, s[0], s[1])
		got := NewDense(s[0], s[0])
		m.RowGramInto(got)
		want := rowGramRef(m)
		if d := maxAbsDiff(got, want); d > 1e-10 {
			t.Errorf("RowGramInto %v: max diff %g vs reference", s, d)
		}
	}
}

// TestKernelsBitwiseDeterministicAcrossWorkers locks in the contract the
// persist layer relies on: with cutoffs pinned, every kernel produces
// identical bits at any worker count. Tiny cutoffs force the parallel paths
// to engage even at test sizes.
func TestKernelsBitwiseDeterministicAcrossWorkers(t *testing.T) {
	pc, pm := par.Cutoffs()
	par.SetCutoffs(64, 64)
	defer par.SetCutoffs(pc, pm)

	rng := rand.New(rand.NewSource(14))
	a := randDense(rng, 33, 47)
	b := randDense(rng, 47, 29)
	tall := randDense(rng, 200, 37)
	wide := randDense(rng, 48, 300)
	x := randVecTest(rng, 200)

	sym := randSym(rng, 41)

	type result struct {
		mul, gramTall, gramWide, rowGram *Dense
		mulVecT                          []float64
		eig                              *Eigen
	}
	run := func() result {
		r := result{
			mul:      NewDense(33, 29),
			gramTall: NewDense(37, 37),
			gramWide: NewDense(300, 300),
			rowGram:  NewDense(48, 48),
			mulVecT:  make([]float64, 37),
		}
		MulInto(r.mul, a, b)
		tall.GramInto(r.gramTall)
		wide.GramInto(r.gramWide)
		wide.RowGramInto(r.rowGram)
		tall.MulVecTInto(r.mulVecT, x)
		eig, err := NewEigenSym(sym)
		if err != nil {
			t.Fatal(err)
		}
		r.eig = eig
		return r
	}

	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	base := run()
	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		got := run()
		for name, pair := range map[string][2]*Dense{
			"MulInto":      {base.mul, got.mul},
			"GramInto/37":  {base.gramTall, got.gramTall},
			"GramInto/300": {base.gramWide, got.gramWide},
			"RowGramInto":  {base.rowGram, got.rowGram},
		} {
			for i, v := range pair[0].data {
				if v != pair[1].data[i] {
					t.Fatalf("%s: workers=%d differs from workers=1 at flat index %d", name, w, i)
				}
			}
		}
		for i, v := range base.mulVecT {
			if v != got.mulVecT[i] {
				t.Fatalf("MulVecTInto: workers=%d differs from workers=1 at %d", w, i)
			}
		}
		for i, v := range base.eig.Values {
			if v != got.eig.Values[i] {
				t.Fatalf("NewEigenSym values: workers=%d differs from workers=1 at %d", w, i)
			}
		}
		for i, v := range base.eig.Q.data {
			if v != got.eig.Q.data[i] {
				t.Fatalf("NewEigenSym Q: workers=%d differs from workers=1 at flat %d", w, i)
			}
		}
	}
}

func randVecTest(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
