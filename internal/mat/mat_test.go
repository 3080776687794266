package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func randSym(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	s := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Set(i, j, (a.At(i, j)+a.At(j, i))/2)
		}
	}
	return s
}

func randSPD(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n+2, n)
	g := a.Gram()
	for i := 0; i < n; i++ {
		g.Add(i, i, 0.5)
	}
	return g
}

func TestNewDensePanics(t *testing.T) {
	for _, tc := range []struct{ r, c int }{{0, 3}, {3, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDense(%d,%d) did not panic", tc.r, tc.c)
				}
			}()
			NewDense(tc.r, tc.c)
		}()
	}
}

func TestNewDenseDataLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestMulMatchesManual(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := a.Mul(b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want, 0) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 5, 7)
	x := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xm := NewDenseData(7, 1, CloneVec(x))
	want := a.Mul(xm)
	got := a.MulVec(x)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestMulVecTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(rng, 6, 4)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := a.MulVecT(x)
	want := a.T().MulVec(x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVecT[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(8)
		a := randDense(rng, rows, cols)
		return a.T().T().Equal(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 9, 5)
	got := a.Gram()
	want := a.T().Mul(a)
	if !got.Equal(want, 1e-10) {
		t.Fatalf("Gram != AᵀA")
	}
}

func TestGramSymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, 2+rng.Intn(6), 1+rng.Intn(6))
		g := a.Gram()
		r, c := g.Dims()
		if r != c {
			return false
		}
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddOuter(t *testing.T) {
	dst := NewDense(2, 3)
	AddOuter(dst, []float64{1, 2}, []float64{3, 4, 5}, 2)
	want := NewDenseData(2, 3, []float64{6, 8, 10, 12, 16, 20})
	if !dst.Equal(want, 0) {
		t.Fatalf("AddOuter = %v, want %v", dst, want)
	}
}

func TestScaleAddSub(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{10, 20, 30, 40})
	c := a.Plus(b)
	if !c.Equal(NewDenseData(2, 2, []float64{11, 22, 33, 44}), 0) {
		t.Fatal("Plus wrong")
	}
	d := c.Clone().Sub(b)
	if !d.Equal(a, 0) {
		t.Fatal("Sub wrong")
	}
	d.Scale(3)
	if !d.Equal(NewDenseData(2, 2, []float64{3, 6, 9, 12}), 0) {
		t.Fatal("Scale wrong")
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		a, b, c := randDense(rng, n, n), randDense(rng, n, n), randDense(rng, n, n)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(10)
		a := randSPD(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("NewCholesky: %v", err)
		}
		got := ch.Solve(b)
		if Distance(got, want) > 1e-7*(1+Norm2(want)) {
			t.Fatalf("trial %d: Cholesky solve error %v", trial, Distance(got, want))
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestLUSolveAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		a := randDense(rng, n, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		lu, err := NewLU(a)
		if err != nil {
			t.Fatalf("NewLU: %v", err)
		}
		got := lu.Solve(b)
		if Distance(got, want) > 1e-6*(1+Norm2(want)) {
			t.Fatalf("trial %d: LU solve error %v", trial, Distance(got, want))
		}
		// A⁻¹ column by column: solves against the unit vectors.
		inv := NewDense(n, n)
		for j := 0; j < n; j++ {
			e := make([]float64, n)
			e[j] = 1
			for i, v := range lu.Solve(e) {
				inv.Set(i, j, v)
			}
		}
		if !a.Mul(inv).Equal(Identity(n), 1e-6) {
			t.Fatalf("trial %d: A*A⁻¹ != I", trial)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 4})
	if _, err := NewLU(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestEigenSymReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(12)
		a := randSym(rng, n)
		eig, err := NewEigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		if !eig.Reconstruct().Equal(a, 1e-8) {
			t.Fatalf("trial %d: QΛQᵀ != A", trial)
		}
		// Q orthogonal.
		if !eig.Q.T().Mul(eig.Q).Equal(Identity(n), 1e-8) {
			t.Fatalf("trial %d: QᵀQ != I", trial)
		}
		// Sorted descending.
		for i := 1; i < n; i++ {
			if eig.Values[i] > eig.Values[i-1]+1e-12 {
				t.Fatalf("trial %d: eigenvalues not sorted: %v", trial, eig.Values)
			}
		}
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := NewDenseData(3, 3, []float64{5, 0, 0, 0, -2, 0, 0, 0, 3})
	eig, err := NewEigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, -2}
	for i, v := range want {
		if math.Abs(eig.Values[i]-v) > 1e-12 {
			t.Fatalf("Values = %v, want %v", eig.Values, want)
		}
	}
}

// stabilizedGram builds a PrIU-opt-shaped stabilized matrix Σᵢ aᵢ·xᵢxᵢᵀ:
// n rows of m correlated features (a rank-m/4 latent factor model plus
// small noise) weighted by aᵢ ∈ [0, 0.25), the shape of a multinomial
// class's C* on Cov.
func stabilizedGram(seed int64, n, m int) *Dense {
	rng := rand.New(rand.NewSource(seed))
	l := randDense(rng, m, m/4)
	c := NewDense(m, m)
	x := make([]float64, m)
	z := make([]float64, m/4)
	for i := 0; i < n; i++ {
		for j := range z {
			z[j] = rng.NormFloat64()
		}
		l.MulVecInto(x, z)
		for j := range x {
			x[j] += 0.1 * rng.NormFloat64()
		}
		AddOuter(c, x, x, 0.25*rng.Float64())
	}
	return c
}

// TestEigenSymConvergesAtScale: on matrices with a large Frobenius norm the
// sweep loop must stop once the off-diagonal mass is gone. A running
// off-norm tally carries round-off of order ε·‖A‖_F², far above the
// 1e-28·‖A‖_F² stopping threshold, so a solver that trusts it runs every
// one of the jacobiMaxSweeps sweeps on most such matrices.
func TestEigenSymConvergesAtScale(t *testing.T) {
	const n, m, maxSweeps = 2000, 54, 16
	for _, seed := range []int64{1, 5, 6} {
		a := stabilizedGram(seed, n, m)
		eig, err := NewEigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		if eig.sweeps > maxSweeps {
			t.Errorf("seed %d: %d sweeps, want <= %d", seed, eig.sweeps, maxSweeps)
		}
		fro := math.Sqrt(Dot(a.data, a.data))
		if !eig.Reconstruct().Equal(a, 1e-12*fro) {
			t.Errorf("seed %d: QΛQᵀ != A (‖A‖_F = %.3g)", seed, fro)
		}
		if !eig.Q.T().Mul(eig.Q).Equal(Identity(m), 1e-12) {
			t.Errorf("seed %d: QᵀQ != I", seed)
		}
	}
}

func TestEigenUpdateValuesExactForCommutingPerturbation(t *testing.T) {
	// When delta shares the eigenbasis of A the incremental update is exact.
	rng := rand.New(rand.NewSource(8))
	n := 6
	a := randSPD(rng, n)
	eig, err := NewEigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	// delta = Q * diag(d) * Qᵀ
	d := make([]float64, n)
	for i := range d {
		d[i] = 0.01 * rng.NormFloat64()
	}
	qd := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qd.Set(i, j, eig.Q.At(i, j)*d[j])
		}
	}
	delta := qd.Mul(eig.Q.T())
	got := eig.UpdateValues(delta)
	for i := range got {
		want := eig.Values[i] + d[i]
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("UpdateValues[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestEigenUpdateValuesLowRankMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 7
	a := randSPD(rng, n)
	eig, err := NewEigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	dx := randDense(rng, 3, n).Scale(0.1)
	delta := dx.Gram().Scale(-1)
	dense := eig.UpdateValues(delta)
	lowrank := eig.UpdateValuesLowRank(dx)
	for i := range dense {
		if math.Abs(dense[i]-lowrank[i]) > 1e-9 {
			t.Fatalf("low-rank update mismatch at %d: %v vs %v", i, lowrank[i], dense[i])
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	y := CloneVec(x)
	Axpy(y, 2, []float64{1, 1})
	if y[0] != 5 || y[1] != 6 {
		t.Fatalf("Axpy = %v", y)
	}
	if d := Distance([]float64{0, 0}, []float64{3, 4}); d != 5 {
		t.Fatalf("Distance = %v", d)
	}
	if c := CosineSimilarity([]float64{1, 0}, []float64{1, 0}); math.Abs(c-1) > 1e-15 {
		t.Fatalf("CosineSimilarity = %v", c)
	}
	if c := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); math.Abs(c) > 1e-15 {
		t.Fatalf("orthogonal cosine = %v", c)
	}
	if c := CosineSimilarity([]float64{0, 0}, []float64{1, 1}); c != 0 {
		t.Fatalf("zero-vector cosine = %v", c)
	}
	s := []float64{3, 2}
	ScaleVec(s, 2)
	if s[0] != 6 || s[1] != 4 {
		t.Fatalf("ScaleVec = %v", s)
	}
	ZeroVec(s)
	if s[0] != 0 || s[1] != 0 {
		t.Fatalf("ZeroVec = %v", s)
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrobeniusSubmultiplicativeProperty(t *testing.T) {
	// Cauchy-Schwarz for matrix norms (Lemma 6 of the appendix):
	// ‖AB‖_F ≤ ‖A‖_F·‖B‖_F.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a, b := randDense(rng, n, n), randDense(rng, n, n)
		return a.Mul(b).FrobeniusNorm() <= a.FrobeniusNorm()*b.FrobeniusNorm()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWeylInterlacingProperty(t *testing.T) {
	// Weyl's inequality (Lemma 7): eigenvalues of A+B are bounded by
	// eig_i(A) + eig_max(B) and eig_i(A) + eig_min(B).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a, b := randSym(rng, n), randSym(rng, n)
		ea, err := NewEigenSym(a)
		if err != nil {
			return false
		}
		eb, err := NewEigenSym(b)
		if err != nil {
			return false
		}
		es, err := NewEigenSym(a.Plus(b))
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			lo := ea.Values[i] + eb.Values[n-1] - 1e-8
			hi := ea.Values[i] + eb.Values[0] + 1e-8
			if es.Values[i] < lo || es.Values[i] > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCopyFromAndZero(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDense(2, 2)
	b.CopyFrom(a)
	if !b.Equal(a, 0) {
		t.Fatal("CopyFrom mismatch")
	}
	b.Zero()
	if b.MaxAbs() != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestStringForms(t *testing.T) {
	small := NewDenseData(1, 2, []float64{1, 2})
	if small.String() == "" {
		t.Fatal("empty String for small matrix")
	}
	big := NewDense(20, 20)
	if big.String() == "" {
		t.Fatal("empty String for big matrix")
	}
}
