package closedform

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

func TestViewUpdateMatchesDirectSolve(t *testing.T) {
	// The view update must be identical to solving the normal equations over
	// the physically reduced dataset.
	d, err := dataset.GenerateRegression("cf", 200, 6, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(d, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	removed := rand.New(rand.NewSource(2)).Perm(200)[:15]
	got, err := v.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := d.Remove(removed)
	if err != nil {
		t.Fatal(err)
	}
	g := sub.X.Gram().Scale(2.0 / float64(sub.N()))
	for j := 0; j < 6; j++ {
		g.Add(j, j, 0.1)
	}
	ch, err := mat.NewCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	rhs := sub.X.MulVecT(sub.Y)
	mat.ScaleVec(rhs, 2.0/float64(sub.N()))
	want := ch.Solve(rhs)
	if mat.Distance(got.Vec(), want) > 1e-8*(1+mat.Norm2(want)) {
		t.Fatalf("view update differs from direct solve by %v", mat.Distance(got.Vec(), want))
	}
}

func TestViewUpdateCloseToGBMBaseline(t *testing.T) {
	// The ridge solution and a converged GD run minimize the same objective.
	d, err := dataset.GenerateRegression("cf2", 150, 4, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.02, Lambda: 0.1, BatchSize: 150, Iterations: 3000, Seed: 4}
	sched, err := gbm.NewSchedule(150, cfg)
	if err != nil {
		t.Fatal(err)
	}
	removed := []int{3, 77, 120}
	rm, _, _ := gbm.Removals(150, removed)
	gd, err := gbm.TrainLinear(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(d, cfg.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if cos := mat.CosineSimilarity(got.Vec(), gd.Vec()); cos < 0.9999 {
		t.Fatalf("closed form vs converged GD cosine %v", cos)
	}
}

func TestViewValidation(t *testing.T) {
	bin, err := dataset.GenerateBinary("b", 20, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewView(bin, 0.1); err == nil {
		t.Fatal("expected task error")
	}
	reg, err := dataset.GenerateRegression("r", 20, 3, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewView(reg, -1); err == nil {
		t.Fatal("expected lambda error")
	}
	v, err := NewView(reg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Update([]int{25}); err == nil {
		t.Fatal("expected range error")
	}
	all := make([]int, 20)
	for i := range all {
		all[i] = i
	}
	if _, err := v.Update(all); err == nil {
		t.Fatal("expected empty-remainder error")
	}
	if v.FootprintBytes() != 3*3*8+3*8 {
		t.Fatalf("FootprintBytes = %d", v.FootprintBytes())
	}
}
