package influence

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

// Cached implements the paper's INFL (full-data Hessian at w*, never
// recomputed), while the direct Update* functions take an exact-Hessian
// Newton step. The tests verify the two coincide for small removals and that
// Cached — the weaker approximation — drifts further from the retrained
// model as the removal grows (the paper's central claim about INFL).

func TestCachedCloseToDirectOnSmallRemoval(t *testing.T) {
	d, err := dataset.GenerateRegression("cl", 150, 5, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.02, Lambda: 0.05, BatchSize: 50, Iterations: 400, Seed: 2}
	sched, err := gbm.NewSchedule(150, cfg)
	if err != nil {
		t.Fatal(err)
	}
	minit, err := gbm.TrainLinear(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewCached(d, minit, cfg.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(150, 2, 3)
	want, err := UpdateLinear(d, minit, cfg.Lambda, removed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny removal: the Hessian barely changes, both forms nearly agree.
	if cos := mat.CosineSimilarity(got.Vec(), want.Vec()); cos < 0.999 {
		t.Fatalf("cached vs direct cosine %v on tiny removal", cos)
	}
}

func TestCachedDegradesFasterThanDirect(t *testing.T) {
	// With 30% of the samples removed, the full-data Hessian is a poor model
	// of the leave-R-out curvature: Cached must be further from the
	// retrained model than the exact-Hessian Newton step.
	d, err := dataset.GenerateBinary("cd", 300, 6, 1.2, 4)
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
	cached, err := NewCached(d, minit, cfg.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(300, 90, 6)
	rm, _, _ := gbm.Removals(300, removed)
	retrained, err := gbm.TrainLogistic(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := UpdateLogistic(d, minit, cfg.Lambda, removed)
	if err != nil {
		t.Fatal(err)
	}
	infl, err := cached.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	dDirect := mat.Distance(direct.Vec(), retrained.Vec())
	dINFL := mat.Distance(infl.Vec(), retrained.Vec())
	if dINFL < dDirect {
		t.Fatalf("INFL (%v) should be worse than the exact Newton step (%v) at 30%% removal", dINFL, dDirect)
	}
}

func TestCachedMulticlassRuns(t *testing.T) {
	d, err := dataset.GenerateMulticlass("cm", 210, 5, 3, 2.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.05, BatchSize: 30, Iterations: 300, Seed: 8}
	sched, err := gbm.NewSchedule(210, cfg)
	if err != nil {
		t.Fatal(err)
	}
	minit, err := gbm.TrainMultinomial(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewCached(d, minit, cfg.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(210, 4, 9)
	got, err := cached.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	rm, _, _ := gbm.Removals(210, removed)
	want, err := gbm.TrainMultinomial(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	if cos := mat.CosineSimilarity(got.Vec(), want.Vec()); cos < 0.97 {
		t.Fatalf("INFL multiclass cosine %v on small removal", cos)
	}
	if cached.FootprintBytes() <= 0 {
		t.Fatal("footprint must be positive")
	}
}

func TestCachedValidation(t *testing.T) {
	d, err := dataset.GenerateRegression("cv", 20, 3, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := &gbm.Model{Task: dataset.Regression, W: mat.NewDense(1, 3)}
	if _, err := NewCached(d, w, -1); err == nil {
		t.Fatal("expected lambda error")
	}
	c, err := NewCached(d, w, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update([]int{50}); err == nil {
		t.Fatal("expected range error")
	}
	all := make([]int, 20)
	for i := range all {
		all[i] = i
	}
	if _, err := c.Update(all); err == nil {
		t.Fatal("expected empty-remainder error")
	}
}
