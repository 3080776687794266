package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/interp"
	"repro/internal/mat"
)

// testLin is a coarse linearizer (fast to build) still accurate to ~1e-9.
var testLin = mustLin()

func mustLin() *interp.Linearizer {
	l, err := interp.NewLinearizer(interp.F, interp.DefaultBound, 100_000)
	if err != nil {
		panic(err)
	}
	return l
}

func pickRemoved(n, k int, seed int64) []int {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

func cosine(a, b *gbm.Model) float64 {
	return mat.CosineSimilarity(a.Vec(), b.Vec())
}

func l2dist(a, b *gbm.Model) float64 {
	return mat.Distance(a.Vec(), b.Vec())
}

// --- Linear regression ---

func linearSetup(t *testing.T, n, m int, cfg gbm.Config) (*dataset.Dataset, *gbm.Schedule) {
	t.Helper()
	d, err := dataset.GenerateRegression("lin", n, m, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := gbm.NewSchedule(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, sched
}

func TestLinearPrIUExactMatchFullMode(t *testing.T) {
	// With full (untruncated) caches, PrIU's update is algebraically the same
	// recurrence as BaseL retraining on the shared schedule — results must
	// agree to round-off.
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.01, BatchSize: 40, Iterations: 150, Seed: 2}
	d, sched := linearSetup(t, 200, 8, cfg)
	lp, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(200, 20, 3)
	rm, _, _ := gbm.Removals(200, removed)
	want, err := gbm.TrainLinear(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lp.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if dist := l2dist(got, want); dist > 1e-10 {
		t.Fatalf("PrIU(full) differs from BaseL by %v", dist)
	}
}

func TestLinearPrIUExactMatchNoRemoval(t *testing.T) {
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.01, BatchSize: 25, Iterations: 100, Seed: 5}
	d, sched := linearSetup(t, 120, 5, cfg)
	lp, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	got, err := lp.Update(nil)
	if err != nil {
		t.Fatal(err)
	}
	if dist := l2dist(got, lp.Model()); dist > 1e-10 {
		t.Fatalf("PrIU with empty removal differs from Minit by %v", dist)
	}
}

func TestLinearPrIUSVDCloseToBaseL(t *testing.T) {
	// SVD truncation introduces the Theorem 6 O(ε) deviation; with ε=0.01 the
	// updated model must still be very close to retraining.
	cfg := gbm.Config{Eta: 0.005, Lambda: 0.01, BatchSize: 20, Iterations: 200, Seed: 7}
	d, sched := linearSetup(t, 150, 30, cfg) // m > B triggers the SVD regime
	lp, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeAuto, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !lp.UsesSVD() {
		t.Fatal("expected auto mode to pick SVD for m > B")
	}
	if lp.MaxRank() > 20 {
		t.Fatalf("rank %d should not exceed batch size", lp.MaxRank())
	}
	removed := pickRemoved(150, 3, 8)
	rm, _, _ := gbm.Removals(150, removed)
	want, err := gbm.TrainLinear(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lp.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if cos := cosine(got, want); cos < 0.999 {
		t.Fatalf("PrIU(SVD) cosine %v vs BaseL", cos)
	}
	if dist := l2dist(got, want); dist > 0.05*(1+mat.Norm2(want.Vec())) {
		t.Fatalf("PrIU(SVD) L2 distance %v", dist)
	}
}

func TestLinearPrIUSVDZeroEpsilonIsExactRankWise(t *testing.T) {
	// ε→0 keeps every positive eigenvalue: reconstruction is exact up to
	// round-off, so PrIU must agree with BaseL tightly even in SVD mode.
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.02, BatchSize: 10, Iterations: 80, Seed: 9}
	d, sched := linearSetup(t, 60, 16, cfg)
	lp, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeSVD, Epsilon: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(60, 6, 10)
	rm, _, _ := gbm.Removals(60, removed)
	want, err := gbm.TrainLinear(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lp.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if dist := l2dist(got, want); dist > 1e-6 {
		t.Fatalf("PrIU(SVD, ε≈0) differs from BaseL by %v", dist)
	}
}

func TestLinearOptCloseToBaseL(t *testing.T) {
	// PrIU-opt's GD approximation: statistically equivalent parameters
	// (Sec 5.2). Check cosine similarity and relative distance, plus the
	// Theorem 7 trend: smaller removals → smaller deviation.
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.05, BatchSize: 50, Iterations: 800, Seed: 11}
	d, sched := linearSetup(t, 300, 6, cfg)
	lo, err := NewLinearOpt(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 15} {
		removed := pickRemoved(300, k, int64(k))
		rm, _, _ := gbm.Removals(300, removed)
		want, err := gbm.TrainLinear(d, cfg, sched, rm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lo.Update(removed)
		if err != nil {
			t.Fatal(err)
		}
		if cos := cosine(got, want); cos < 0.995 {
			t.Fatalf("k=%d: PrIU-opt cosine %v", k, cos)
		}
	}
}

func TestLinearOptLargeRemovalUsesDensePath(t *testing.T) {
	// Δn ≥ m exercises the O(m³) congruence branch.
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.05, BatchSize: 50, Iterations: 500, Seed: 13}
	d, sched := linearSetup(t, 200, 4, cfg)
	lo, err := NewLinearOpt(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(200, 40, 14) // Δn=40 > m=4
	rm, _, _ := gbm.Removals(200, removed)
	want, err := gbm.TrainLinear(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lo.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if cos := cosine(got, want); cos < 0.99 {
		t.Fatalf("PrIU-opt (dense path) cosine %v", cos)
	}
}

func TestLinearOptEmptyRemoval(t *testing.T) {
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.05, BatchSize: 30, Iterations: 400, Seed: 15}
	d, sched := linearSetup(t, 100, 5, cfg)
	lo, err := NewLinearOpt(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := gbm.TrainLinear(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lo.Update(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cos := cosine(got, base); cos < 0.999 {
		t.Fatalf("PrIU-opt no-removal cosine %v vs GBM training", cos)
	}
}

// --- Binary logistic regression ---

func logisticSetup(t *testing.T, n, m int, cfg gbm.Config) (*dataset.Dataset, *gbm.Schedule) {
	t.Helper()
	d, err := dataset.GenerateBinary("logi", n, m, 1.2, 21)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := gbm.NewSchedule(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, sched
}

func TestLogisticLinearizedModelCloseToExact(t *testing.T) {
	// Theorem 4: ‖w − w_L‖ = O((Δx)²).
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.01, BatchSize: 32, Iterations: 300, Seed: 22}
	d, sched := logisticSetup(t, 200, 6, cfg)
	lp, err := CaptureLogistic(d, cfg, sched, testLin, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	dist := l2dist(lp.LinearizedModel(), lp.Model())
	if dist > 1e-4 {
		t.Fatalf("‖w − w_L‖ = %v, linearization too lossy", dist)
	}
}

func TestLogisticPrIUCloseToBaseL(t *testing.T) {
	// Theorem 5/8: the incrementally updated w_LU is close to the retrained
	// w_RU, with cosine ≈ 1 (the paper's Table 4 criterion).
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.01, BatchSize: 32, Iterations: 300, Seed: 23}
	d, sched := logisticSetup(t, 200, 6, cfg)
	lp, err := CaptureLogistic(d, cfg, sched, testLin, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 20} {
		removed := pickRemoved(200, k, int64(30+k))
		rm, _, _ := gbm.Removals(200, removed)
		want, err := gbm.TrainLogistic(d, cfg, sched, rm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lp.Update(removed)
		if err != nil {
			t.Fatal(err)
		}
		if cos := cosine(got, want); cos < 0.999 {
			t.Fatalf("k=%d: PrIU logistic cosine %v", k, cos)
		}
		relDist := l2dist(got, want) / (1 + mat.Norm2(want.Vec()))
		if relDist > 0.02 {
			t.Fatalf("k=%d: PrIU logistic relative distance %v", k, relDist)
		}
	}
}

func TestLogisticPrIUSVDMode(t *testing.T) {
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 16, Iterations: 200, Seed: 25}
	d, sched := logisticSetup(t, 120, 24, cfg) // m > B → SVD regime
	lp, err := CaptureLogistic(d, cfg, sched, testLin, Options{Mode: ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !lp.UsesSVD() {
		t.Fatal("expected SVD regime")
	}
	removed := pickRemoved(120, 4, 26)
	rm, _, _ := gbm.Removals(120, removed)
	want, err := gbm.TrainLogistic(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lp.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if cos := cosine(got, want); cos < 0.995 {
		t.Fatalf("PrIU logistic (SVD) cosine %v", cos)
	}
}

func TestLogisticOptCloseToBaseL(t *testing.T) {
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 32, Iterations: 400, Seed: 27}
	d, sched := logisticSetup(t, 200, 6, cfg)
	lo, err := CaptureLogisticOpt(d, cfg, sched, testLin, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	if lo.Ts() != 280 {
		t.Fatalf("ts = %d, want 0.7·400", lo.Ts())
	}
	removed := pickRemoved(200, 4, 28)
	rm, _, _ := gbm.Removals(200, removed)
	want, err := gbm.TrainLogistic(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lo.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if cos := cosine(got, want); cos < 0.99 {
		t.Fatalf("PrIU-opt logistic cosine %v", cos)
	}
	// Predictive agreement on the training features.
	pg := got.PredictBinary(d.X)
	pw := want.PredictBinary(d.X)
	agree := 0
	for i := range pg {
		if pg[i] == pw[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(pg)); frac < 0.97 {
		t.Fatalf("prediction agreement %v", frac)
	}
}

func TestLogisticOptCustomFraction(t *testing.T) {
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 20, Iterations: 100, Seed: 29}
	d, sched := logisticSetup(t, 80, 4, cfg)
	lo, err := CaptureLogisticOpt(d, cfg, sched, testLin, Options{Mode: ModeFull, EarlyTerminationFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if lo.Ts() != 50 {
		t.Fatalf("ts = %d, want 50", lo.Ts())
	}
	if _, err := lo.Update([]int{0, 7}); err != nil {
		t.Fatal(err)
	}
}

// --- Multinomial logistic regression ---

func TestMultinomialPrIUCloseToBaseL(t *testing.T) {
	d, err := dataset.GenerateMulticlass("mc", 240, 8, 3, 2.5, 31)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 40, Iterations: 250, Seed: 32}
	sched, err := gbm.NewSchedule(240, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := CaptureMultinomial(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	// Linearized multinomial should already be close to the exact model.
	if cos := cosine(mp.LinearizedModel(), mp.Model()); cos < 0.99 {
		t.Fatalf("linearized multinomial cosine %v vs exact", cos)
	}
	removed := pickRemoved(240, 6, 33)
	rm, _, _ := gbm.Removals(240, removed)
	want, err := gbm.TrainMultinomial(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mp.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if cos := cosine(got, want); cos < 0.99 {
		t.Fatalf("PrIU multinomial cosine %v", cos)
	}
	// Classification agreement.
	pg := got.PredictMulticlass(d.X)
	pw := want.PredictMulticlass(d.X)
	agree := 0
	for i := range pg {
		if pg[i] == pw[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(pg)); frac < 0.95 {
		t.Fatalf("multiclass prediction agreement %v", frac)
	}
}

func TestMultinomialRejectsWrongTask(t *testing.T) {
	d, err := dataset.GenerateBinary("wrong", 50, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 10, Iterations: 10, Seed: 1}
	sched, err := gbm.NewSchedule(50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CaptureMultinomial(d, cfg, sched, Options{}); err == nil {
		t.Fatal("expected task error")
	}
	if _, err := CaptureLogistic(d, cfg, sched, testLin, Options{}); err != nil {
		t.Fatalf("binary capture should work: %v", err)
	}
}

// --- Sparse logistic ---

func TestSparsePrIUCloseToBaseL(t *testing.T) {
	d, err := dataset.GenerateSparseBinary("sp", 150, 400, 10, 41)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.1, Lambda: 0.01, BatchSize: 30, Iterations: 200, Seed: 42}
	sched, err := gbm.NewSchedule(150, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := CaptureLogisticSparse(d, cfg, sched, testLin)
	if err != nil {
		t.Fatal(err)
	}
	if cos := cosine(sp.LinearizedModel(), sp.Model()); cos < 0.999 {
		t.Fatalf("sparse linearized cosine %v", cos)
	}
	removed := pickRemoved(150, 5, 43)
	rm, _, _ := gbm.Removals(150, removed)
	want, err := gbm.TrainLogisticSparse(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sp.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if cos := cosine(got, want); cos < 0.999 {
		t.Fatalf("sparse PrIU cosine %v", cos)
	}
	if sp.FootprintBytes() <= 0 {
		t.Fatal("footprint must be positive")
	}
}

// --- Shared machinery ---

func TestWeightedGramCacheFullVsSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := 12
	rows := make([][]float64, 8)
	weights := make([]float64, 8)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
		weights[i] = -rng.Float64() // logistic-style negative weights
	}
	full, err := weightedGramCache(rows, weights, m, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	svd, err := weightedGramCache(rows, weights, m, true, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, m)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	a := make([]float64, m)
	b := make([]float64, m)
	scratch := make([]float64, m)
	full.apply(a, w, scratch)
	svd.apply(b, w, scratch)
	if mat.Distance(a, b) > 1e-8*(1+mat.Norm2(a)) {
		t.Fatalf("full vs SVD apply differ by %v", mat.Distance(a, b))
	}
	if svd.rank() > 8 {
		t.Fatalf("rank %d exceeds row count", svd.rank())
	}
}

func TestWeightedGramCacheZeroWeights(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}}
	weights := []float64{0, 0}
	c, err := weightedGramCache(rows, weights, 2, true, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 1}
	dst := make([]float64, 2)
	scratch := make([]float64, 2)
	c.apply(dst, w, scratch)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("zero-weight cache apply = %v", dst)
	}
}

// TestWeightedGramCacheRejectsMixedSigns: the cache is sign·ZᵀZ with rows
// √|wᵢ|·xᵢ, which cannot hold weights of both signs; taking the first
// non-zero weight's sign would silently build the wrong matrix.
func TestWeightedGramCacheRejectsMixedSigns(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	for _, weights := range [][]float64{{0, -1, 2}, {3, 0, -0.5}} {
		for _, useSVD := range []bool{false, true} {
			if _, err := weightedGramCache(rows, weights, 2, useSVD, 0.01); err == nil {
				t.Errorf("weights %v (svd=%v): mixed signs accepted", weights, useSVD)
			}
		}
	}
	// One sign plus zeros is fine either way round, and builds Σ wᵢ·xᵢxᵢᵀ.
	for _, weights := range [][]float64{{0, -1, -2}, {0.5, 0, 2}} {
		c, err := weightedGramCache(rows, weights, 2, false, 0)
		if err != nil {
			t.Fatalf("weights %v: %v", weights, err)
		}
		want := mat.NewDense(2, 2)
		for i, w := range weights {
			mat.AddOuter(want, rows[i], rows[i], w)
		}
		if !c.full.Equal(want, 1e-12) {
			t.Errorf("weights %v: got %v, want %v", weights, c.full, want)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Epsilon: -0.1},
		{Epsilon: 1},
		{EarlyTerminationFraction: 1.5},
		{EarlyTerminationFraction: -0.1},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Fatalf("bad options %d validated", i)
		}
	}
	if (Options{}).epsilon() != 0.01 {
		t.Fatal("default epsilon")
	}
	if (Options{}).earlyTermFrac() != 0.7 {
		t.Fatal("default early-termination fraction")
	}
	if ModeAuto.String() != "auto" || ModeFull.String() != "full" || ModeSVD.String() != "svd" {
		t.Fatal("CacheMode.String")
	}
}

func TestUpdateRejectsBadRemovals(t *testing.T) {
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.01, BatchSize: 10, Iterations: 20, Seed: 61}
	d, sched := linearSetup(t, 40, 4, cfg)
	lp, err := CaptureLinear(d, cfg, sched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lp.Update([]int{-1}); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := lp.Update([]int{40}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestFootprintsPositiveAndOrdered(t *testing.T) {
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.01, BatchSize: 10, Iterations: 50, Seed: 71}
	d, sched := linearSetup(t, 80, 6, cfg)
	lpFull, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := NewLinearOpt(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lpFull.FootprintBytes() <= 0 || lo.FootprintBytes() <= 0 {
		t.Fatal("footprints must be positive")
	}
	// PrIU-opt caches O(m²) instead of O(τ·m²): much smaller here.
	if lo.FootprintBytes() >= lpFull.FootprintBytes() {
		t.Fatalf("PrIU-opt footprint %d should be below PrIU full %d",
			lo.FootprintBytes(), lpFull.FootprintBytes())
	}
}

func TestTheorem5ErrorScalesWithRemovalFraction(t *testing.T) {
	// ‖w_LU − w_RU‖ should grow with Δn/n (Theorem 5). Compare small vs
	// large deletion; the trend must hold.
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 32, Iterations: 200, Seed: 81}
	d, sched := logisticSetup(t, 200, 5, cfg)
	lp, err := CaptureLogistic(d, cfg, sched, testLin, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	dist := func(k int) float64 {
		removed := pickRemoved(200, k, 82)
		rm, _, _ := gbm.Removals(200, removed)
		want, err := gbm.TrainLogistic(d, cfg, sched, rm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lp.Update(removed)
		if err != nil {
			t.Fatal(err)
		}
		return l2dist(got, want)
	}
	small, large := dist(2), dist(60)
	if small > large+1e-9 && large > 1e-12 {
		t.Fatalf("deviation did not grow with removal size: %v vs %v", small, large)
	}
	if math.IsNaN(small) || math.IsNaN(large) {
		t.Fatal("NaN deviation")
	}
}
