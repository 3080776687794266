package interp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

// testLinearizer uses a coarser grid than the paper's 10⁶ cells so tests
// stay fast while still exercising the error bounds.
func testLinearizer(t *testing.T, cells int) *Linearizer {
	t.Helper()
	l, err := NewLinearizer(F, DefaultBound, cells)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSigmoidValues(t *testing.T) {
	if math.Abs(Sigmoid(0)-0.5) > 1e-15 {
		t.Fatalf("Sigmoid(0) = %v", Sigmoid(0))
	}
	if Sigmoid(100) < 1-1e-12 {
		t.Fatalf("Sigmoid(100) = %v", Sigmoid(100))
	}
	if Sigmoid(-100) > 1e-12 {
		t.Fatalf("Sigmoid(-100) = %v", Sigmoid(-100))
	}
	// Symmetry σ(x) + σ(−x) = 1.
	for _, x := range []float64{-5, -1, 0.3, 2, 7} {
		if math.Abs(Sigmoid(x)+Sigmoid(-x)-1) > 1e-12 {
			t.Fatalf("sigmoid symmetry broken at %v", x)
		}
	}
}

func TestFAndFPrime(t *testing.T) {
	// f(x) = 1 − 1/(1+e^{−x}); check against the direct formula.
	for _, x := range []float64{-10, -1, 0, 0.5, 3, 15} {
		want := 1 - 1/(1+math.Exp(-x))
		if math.Abs(F(x)-want) > 1e-12 {
			t.Fatalf("F(%v) = %v, want %v", x, F(x), want)
		}
	}
	// f′ < 0 everywhere (f monotonically decreasing).
	for _, x := range []float64{-8, 0, 8} {
		if FPrime(x) >= 0 {
			t.Fatalf("FPrime(%v) = %v, want negative", x, FPrime(x))
		}
	}
	// Numeric derivative check.
	const h = 1e-6
	for _, x := range []float64{-2, 0.7, 4} {
		num := (F(x+h) - F(x-h)) / (2 * h)
		if math.Abs(FPrime(x)-num) > 1e-6 {
			t.Fatalf("FPrime(%v) = %v, numeric %v", x, FPrime(x), num)
		}
	}
}

func TestLinearizerInterpolatesAtBreakpoints(t *testing.T) {
	l := testLinearizer(t, 1000)
	h := l.Delta()
	for c := 0; c <= 1000; c += 100 {
		x := -DefaultBound + float64(c)*h
		if x >= DefaultBound {
			break
		}
		if math.Abs(l.Eval(x)-F(x)) > 1e-12 {
			t.Fatalf("interpolant not exact at breakpoint %v: %v vs %v", x, l.Eval(x), F(x))
		}
	}
}

func TestLinearizerErrorBoundLemma9(t *testing.T) {
	// |f − s| ≤ (Δx)² max|f″| / 8 on the domain (Lemma 9).
	l := testLinearizer(t, 4096)
	bound := l.MaxAbsError()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		x := (rng.Float64()*2 - 1) * DefaultBound
		if err := math.Abs(l.Eval(x) - F(x)); err > bound+1e-15 {
			t.Fatalf("error %v at x=%v exceeds Lemma 9 bound %v", err, x, bound)
		}
	}
}

func TestLinearizerErrorShrinksQuadratically(t *testing.T) {
	// Halving Δx should shrink the max observed error ~4x (O((Δx)²), Thm 4's
	// driver). Allow generous slack for sampling noise.
	coarse := testLinearizer(t, 512)
	fine := testLinearizer(t, 1024)
	rng := rand.New(rand.NewSource(2))
	maxErr := func(l *Linearizer) float64 {
		var m float64
		for i := 0; i < 50000; i++ {
			x := (rng.Float64()*2 - 1) * 10 // stay where f has curvature
			if e := math.Abs(l.Eval(x) - F(x)); e > m {
				m = e
			}
		}
		return m
	}
	ec, ef := maxErr(coarse), maxErr(fine)
	ratio := ec / ef
	if ratio < 2.5 {
		t.Fatalf("error ratio %v after halving Δx; want ≳4 (quadratic)", ratio)
	}
}

func TestLinearizerOutsideDomainConstant(t *testing.T) {
	l := testLinearizer(t, 100)
	a, b := l.Coefficients(-50)
	if a != 0 || math.Abs(b-F(-DefaultBound)) > 1e-15 {
		t.Fatalf("left extension (a,b) = (%v,%v)", a, b)
	}
	a, b = l.Coefficients(DefaultBound + 1)
	if a != 0 || math.Abs(b-F(DefaultBound)) > 1e-15 {
		t.Fatalf("right extension (a,b) = (%v,%v)", a, b)
	}
	// At the right edge exactly.
	a, _ = l.Coefficients(DefaultBound)
	if a != 0 {
		t.Fatalf("x = bound should use constant extension, a = %v", a)
	}
}

func TestLinearizerSlopeNegativeProperty(t *testing.T) {
	// f is monotonically decreasing so every secant slope a must be ≤ 0 —
	// this is the property the convergence proof leans on (−a·xxᵀ PSD).
	l := testLinearizer(t, 2048)
	f := func(raw float64) bool {
		x := math.Mod(raw, DefaultBound)
		a, _ := l.Coefficients(x)
		return a <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLinearizerCellLookupConsistency(t *testing.T) {
	// Eval must be continuous across cell boundaries to within the secant
	// construction (shared breakpoints).
	l := testLinearizer(t, 333)
	h := l.Delta()
	for c := 1; c < 333; c += 7 {
		x := -DefaultBound + float64(c)*h
		left := l.Eval(x - 1e-12)
		right := l.Eval(x + 1e-12)
		if math.Abs(left-right) > 1e-9 {
			t.Fatalf("discontinuity at breakpoint %v: %v vs %v", x, left, right)
		}
	}
}

func TestNewLinearizerValidation(t *testing.T) {
	if _, err := NewLinearizer(F, 0, 10); err != ErrBadConfig {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewLinearizer(F, 1, 0); err != ErrBadConfig {
		t.Fatalf("err = %v", err)
	}
}

func TestDefaultLinearizerConfig(t *testing.T) {
	l := NewSigmoidLinearizer()
	if l.Delta() != 2*DefaultBound/float64(DefaultCells) {
		t.Fatalf("Delta = %v", l.Delta())
	}
	if l.FootprintBytes() != int64(DefaultCells)*16 {
		t.Fatalf("FootprintBytes = %v", l.FootprintBytes())
	}
	// Paper-scale grid: error bound must be tiny.
	if l.MaxAbsError() > 1e-8 {
		t.Fatalf("paper-scale MaxAbsError = %v", l.MaxAbsError())
	}
}

// serialLinearizer is the reference tabulation: one left-to-right pass that
// carries each cell's right breakpoint over as the next cell's left one.
func serialLinearizer(fn func(float64) float64, bound float64, cells int) *Linearizer {
	l := &Linearizer{
		bound: bound,
		n:     cells,
		inv:   float64(cells) / (2 * bound),
		a:     make([]float64, cells),
		b:     make([]float64, cells),
		lo:    fn(-bound),
		hi:    fn(bound),
	}
	h := 2 * bound / float64(cells)
	prevX := -bound
	prevF := fn(prevX)
	for c := 0; c < cells; c++ {
		x1 := -bound + float64(c+1)*h
		f1 := fn(x1)
		a := (f1 - prevF) / h
		l.a[c] = a
		l.b[c] = prevF - a*prevX
		prevX, prevF = x1, f1
	}
	return l
}

func sameTable(t *testing.T, what string, got, want *Linearizer) {
	t.Helper()
	if got.bound != want.bound || got.n != want.n || got.inv != want.inv ||
		math.Float64bits(got.lo) != math.Float64bits(want.lo) ||
		math.Float64bits(got.hi) != math.Float64bits(want.hi) ||
		len(got.a) != len(want.a) || len(got.b) != len(want.b) {
		t.Fatalf("%s: header differs", what)
	}
	for c := range want.a {
		if math.Float64bits(got.a[c]) != math.Float64bits(want.a[c]) ||
			math.Float64bits(got.b[c]) != math.Float64bits(want.b[c]) {
			t.Fatalf("%s: cell %d = (%v, %v), want (%v, %v)", what, c, got.a[c], got.b[c], want.a[c], want.b[c])
		}
	}
}

func TestNewLinearizerBitwiseAcrossWorkers(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	for _, cells := range []int{1, 7, 50_000, 300_001} {
		want := serialLinearizer(F, DefaultBound, cells)
		for _, w := range []int{1, 2, 4} {
			par.SetWorkers(w)
			sameTable(t, "NewLinearizer", testLinearizer(t, cells), want)
		}
	}
}

func TestSigmoidLinearizerShared(t *testing.T) {
	prev := par.SetWorkers(4)
	defer par.SetWorkers(prev)
	// A fresh once, so the concurrent calls below race on the first build
	// whatever earlier tests did.
	defer func(g func() *Linearizer) { sigmoidGrid = g }(sigmoidGrid)
	sigmoidGrid = sync.OnceValue(buildSigmoidGrid)
	got := make([]*Linearizer, 4)
	done := make(chan int)
	for i := range got {
		go func() { got[i] = NewSigmoidLinearizer(); done <- i }()
	}
	for range got {
		<-done
	}
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("call %d returned a different grid", i)
		}
	}
	if NewSigmoidLinearizer() != got[0] {
		t.Fatal("a later call returned a different grid")
	}
	par.SetWorkers(1)
	fresh, err := NewLinearizer(F, DefaultBound, DefaultCells)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, "shared grid vs serial NewLinearizer", got[0], fresh)
}
