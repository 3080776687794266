package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

func TestMultinomialOptCloseToBaseL(t *testing.T) {
	d, err := dataset.GenerateMulticlass("mco", 240, 6, 3, 2.5, 91)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 40, Iterations: 300, Seed: 92}
	sched, err := gbm.NewSchedule(240, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := CaptureMultinomialOpt(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	if mo.Ts() != 210 {
		t.Fatalf("ts = %d, want 0.7·300", mo.Ts())
	}
	removed := pickRemoved(240, 5, 93)
	rm, _, _ := gbm.Removals(240, removed)
	want, err := gbm.TrainMultinomial(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mo.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if cos := cosine(got, want); cos < 0.98 {
		t.Fatalf("PrIU-opt multinomial cosine %v", cos)
	}
	pg := got.PredictMulticlass(d.X)
	pw := want.PredictMulticlass(d.X)
	agree := 0
	for i := range pg {
		if pg[i] == pw[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(pg)); frac < 0.95 {
		t.Fatalf("prediction agreement %v", frac)
	}
	if mo.FootprintBytes() <= 0 {
		t.Fatal("footprint must be positive")
	}
}

func TestMultinomialOptEmptyRemoval(t *testing.T) {
	d, err := dataset.GenerateMulticlass("mco2", 120, 5, 3, 2.5, 94)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 30, Iterations: 100, Seed: 95}
	sched, err := gbm.NewSchedule(120, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := CaptureMultinomialOpt(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	base, err := gbm.TrainMultinomial(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mo.Update(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cos := cosine(got, base); cos < 0.98 {
		t.Fatalf("no-removal cosine %v", cos)
	}
}

func TestLogisticOptFootprintBelowFullPrIU(t *testing.T) {
	// Early termination should shrink the cache roughly by the ts/τ ratio.
	d, err := dataset.GenerateBinary("fp", 150, 8, 1.2, 96)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 30, Iterations: 200, Seed: 97}
	sched, err := gbm.NewSchedule(150, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CaptureLogistic(d, cfg, sched, testLin, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := CaptureLogisticOpt(d, cfg, sched, testLin, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	if opt.FootprintBytes() >= full.FootprintBytes() {
		t.Fatalf("PrIU-opt footprint %d should be below PrIU %d",
			opt.FootprintBytes(), full.FootprintBytes())
	}
}

func TestEigenGramSignedConsistency(t *testing.T) {
	// UpdateValuesGram(z, −1) must equal UpdateValuesLowRank(z).
	a := mat.NewDenseData(3, 3, []float64{4, 1, 0, 1, 3, 1, 0, 1, 2})
	eig, err := mat.NewEigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	z := mat.NewDenseData(2, 3, []float64{0.1, 0.2, 0.3, -0.2, 0.1, 0})
	neg := eig.UpdateValuesGram(z, -1)
	lr := eig.UpdateValuesLowRank(z)
	for i := range neg {
		if neg[i] != lr[i] {
			t.Fatalf("signed gram update mismatch at %d: %v vs %v", i, neg[i], lr[i])
		}
	}
}
