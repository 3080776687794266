package influence

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

func pickRemoved(n, k int, seed int64) []int {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

func TestUpdateLinearSmallRemovalAccurate(t *testing.T) {
	// For quadratic objectives a Newton step from near the optimum is exact,
	// so with a well-converged w* and a small removal INFL must land close to
	// the retrained model.
	d, err := dataset.GenerateRegression("infl", 300, 5, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.02, Lambda: 0.05, BatchSize: 300, Iterations: 2000, Seed: 2}
	sched, err := gbm.NewSchedule(300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	minit, err := gbm.TrainLinear(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(300, 3, 3)
	rm, _, _ := gbm.Removals(300, removed)
	want, err := gbm.TrainLinear(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UpdateLinear(d, minit, cfg.Lambda, removed)
	if err != nil {
		t.Fatal(err)
	}
	if cos := mat.CosineSimilarity(got.Vec(), want.Vec()); cos < 0.999 {
		t.Fatalf("INFL linear cosine %v", cos)
	}
}

func TestUpdateLogisticDegradesWithLargeRemoval(t *testing.T) {
	// The paper's central claim about INFL: accuracy degrades as more samples
	// are removed (Taylor expansion leaves the trust region). Distance to the
	// retrained model must grow substantially from 1% to 30% deletion.
	d, err := dataset.GenerateBinary("infl-b", 300, 6, 1.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.01, BatchSize: 50, Iterations: 800, Seed: 5}
	sched, err := gbm.NewSchedule(300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	minit, err := gbm.TrainLogistic(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist := func(k int) float64 {
		removed := pickRemoved(300, k, 6)
		rm, _, _ := gbm.Removals(300, removed)
		want, err := gbm.TrainLogistic(d, cfg, sched, rm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UpdateLogistic(d, minit, cfg.Lambda, removed)
		if err != nil {
			t.Fatal(err)
		}
		return mat.Distance(got.Vec(), want.Vec())
	}
	small, large := dist(3), dist(90)
	if large <= small {
		t.Fatalf("INFL error did not grow with removal size: %v vs %v", small, large)
	}
}

func TestUpdateLogisticSmallRemovalReasonable(t *testing.T) {
	d, err := dataset.GenerateBinary("infl-s", 200, 4, 1.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.05, BatchSize: 40, Iterations: 600, Seed: 8}
	sched, err := gbm.NewSchedule(200, cfg)
	if err != nil {
		t.Fatal(err)
	}
	minit, err := gbm.TrainLogistic(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(200, 2, 9)
	rm, _, _ := gbm.Removals(200, removed)
	want, err := gbm.TrainLogistic(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UpdateLogistic(d, minit, cfg.Lambda, removed)
	if err != nil {
		t.Fatal(err)
	}
	if cos := mat.CosineSimilarity(got.Vec(), want.Vec()); cos < 0.99 {
		t.Fatalf("INFL logistic small-removal cosine %v", cos)
	}
}

func TestUpdateMultinomial(t *testing.T) {
	d, err := dataset.GenerateMulticlass("infl-m", 240, 6, 3, 2.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.05, BatchSize: 40, Iterations: 500, Seed: 11}
	sched, err := gbm.NewSchedule(240, cfg)
	if err != nil {
		t.Fatal(err)
	}
	minit, err := gbm.TrainMultinomial(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(240, 3, 12)
	got, err := UpdateMultinomial(d, minit, cfg.Lambda, removed)
	if err != nil {
		t.Fatal(err)
	}
	rm, _, _ := gbm.Removals(240, removed)
	want, err := gbm.TrainMultinomial(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	if cos := mat.CosineSimilarity(got.Vec(), want.Vec()); cos < 0.98 {
		t.Fatalf("INFL multinomial cosine %v", cos)
	}
}

func TestTaskValidation(t *testing.T) {
	reg, err := dataset.GenerateRegression("r", 20, 3, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := dataset.GenerateBinary("b", 20, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := &gbm.Model{Task: dataset.Regression, W: mat.NewDense(1, 3)}
	if _, err := UpdateLinear(bin, w, 0.1, nil); err == nil {
		t.Fatal("expected task error")
	}
	if _, err := UpdateLogistic(reg, w, 0.1, nil); err == nil {
		t.Fatal("expected task error")
	}
	if _, err := UpdateMultinomial(reg, w, 0.1, nil); err == nil {
		t.Fatal("expected task error")
	}
	if _, err := UpdateLinear(reg, w, 0.1, []int{99}); err == nil {
		t.Fatal("expected range error")
	}
}
