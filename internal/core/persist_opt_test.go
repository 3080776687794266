package core

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/interp"
)

// The opt round trips assert bitwise equality: the loaders rebuild the
// eigenbases through the kernels capture used, whose reductions plan chunks
// from the shape alone, so a restored updater must reproduce the original's
// output to the last bit.

func TestLinearOptRoundTrip(t *testing.T) {
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.02, BatchSize: 20, Iterations: 60, Seed: 301}
	d, _ := linearSetup(t, 100, 6, cfg)
	lo, err := NewLinearOpt(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := lo.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLinearOpt(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(100, 9, 302)
	want, err := lo.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if dist := l2dist(got, want); dist != 0 {
		t.Fatalf("loaded linear-opt update differs by %v", dist)
	}
	if dist := l2dist(loaded.Model(), lo.Model()); dist != 0 {
		t.Fatalf("loaded linear-opt model differs by %v", dist)
	}
}

func TestLogisticOptRoundTrip(t *testing.T) {
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 25, Iterations: 80, Seed: 303}
	d, err := dataset.GenerateBinary("plo", 120, 5, 0.8, 304)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := gbm.NewSchedule(120, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := interp.NewLinearizer(interp.F, interp.DefaultBound, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := CaptureLogisticOpt(d, cfg, sched, lin, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := lo.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLogisticOpt(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Ts() != lo.Ts() {
		t.Fatalf("loaded ts %d, want %d", loaded.Ts(), lo.Ts())
	}
	removed := pickRemoved(120, 7, 305)
	want, err := lo.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if dist := l2dist(got, want); dist != 0 {
		t.Fatalf("loaded logistic-opt update differs by %v", dist)
	}
	if dist := l2dist(loaded.Model(), lo.Model()); dist != 0 {
		t.Fatalf("loaded logistic-opt model differs by %v", dist)
	}
}

func TestMultinomialOptRoundTrip(t *testing.T) {
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 30, Iterations: 60, Seed: 306}
	d, err := dataset.GenerateMulticlass("pmo", 150, 5, 3, 2.0, 307)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := gbm.NewSchedule(150, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := CaptureMultinomialOpt(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := mo.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMultinomialOpt(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(150, 8, 308)
	want, err := mo.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if dist := l2dist(got, want); dist != 0 {
		t.Fatalf("loaded multinomial-opt update differs by %v", dist)
	}
}

func TestLoadOptRejectsWrongStream(t *testing.T) {
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.02, BatchSize: 20, Iterations: 40, Seed: 309}
	d, sched := linearSetup(t, 80, 5, cfg)

	// A plain PrIU stream must not decode as an opt stream (distinct magic).
	lp, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if _, err := lp.WriteTo(&plain); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLinearOpt(bytes.NewReader(plain.Bytes()), d); err == nil {
		t.Fatal("LoadLinearOpt should reject a PrIU provenance stream")
	}

	// A linear-opt stream must be rejected against a different dataset.
	lo, err := NewLinearOpt(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := lo.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := dataset.GenerateRegression("plo-other", 80, 5, 0.05, 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLinearOpt(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("LoadLinearOpt should reject a fingerprint mismatch")
	}

	// Truncated opt streams fail closed.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadLinearOpt(bytes.NewReader(trunc), d); err == nil {
		t.Fatal("LoadLinearOpt should reject a truncated stream")
	}
}

// TestOptFootprintSurvivesRoundTrip: a loaded opt updater reports the
// captured one's FootprintBytes, occurrence index included, so a restored
// session is charged what the live one was.
func TestOptFootprintSurvivesRoundTrip(t *testing.T) {
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 25, Iterations: 80, Seed: 306}
	sched, err := gbm.NewSchedule(120, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := dataset.GenerateBinary("fp-lo", 120, 5, 0.8, 307)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := CaptureLogisticOpt(bin, cfg, sched, testLin, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := lo.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loadedLo, err := LoadLogisticOpt(&buf, bin)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loadedLo.FootprintBytes(), lo.FootprintBytes(); got != want {
		t.Fatalf("logistic-opt: loaded footprint %d, captured %d", got, want)
	}
	if idx := lo.occ.footprint(); idx != int64(121+lo.Ts()*25)*4 {
		t.Fatalf("logistic-opt: index footprint %d, want (n+1+ts·B)·4", idx)
	}

	mc, err := dataset.GenerateMulticlass("fp-mo", 120, 5, 3, 2.5, 308)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := CaptureMultinomialOpt(mc, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := mo.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loadedMo, err := LoadMultinomialOpt(&buf, mc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loadedMo.FootprintBytes(), mo.FootprintBytes(); got != want {
		t.Fatalf("multinomial-opt: loaded footprint %d, captured %d", got, want)
	}
	if mo.occ.footprint() == 0 {
		t.Fatal("multinomial-opt: occurrence index not counted")
	}
}
