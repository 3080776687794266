package core

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

func TestLinearProvenanceRoundTrip(t *testing.T) {
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.02, BatchSize: 20, Iterations: 60, Seed: 201}
	d, sched := linearSetup(t, 100, 6, cfg)
	lp, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := lp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLinearProvenance(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(100, 9, 202)
	want, err := lp.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if dist := l2dist(got, want); dist != 0 {
		t.Fatalf("loaded cache update differs by %v", dist)
	}
	if dist := l2dist(loaded.Model(), lp.Model()); dist != 0 {
		t.Fatalf("loaded Minit differs by %v", dist)
	}
}

func TestLinearProvenanceRoundTripSVD(t *testing.T) {
	cfg := gbm.Config{Eta: 0.005, Lambda: 0.02, BatchSize: 10, Iterations: 40, Seed: 203}
	d, sched := linearSetup(t, 60, 20, cfg)
	lp, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeSVD})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := lp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLinearProvenance(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.UsesSVD() || loaded.MaxRank() != lp.MaxRank() {
		t.Fatal("SVD metadata not preserved")
	}
	removed := pickRemoved(60, 4, 204)
	want, _ := lp.Update(removed)
	got, _ := loaded.Update(removed)
	if dist := l2dist(got, want); dist != 0 {
		t.Fatalf("loaded SVD cache update differs by %v", dist)
	}
}

func TestLogisticProvenanceRoundTrip(t *testing.T) {
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 25, Iterations: 80, Seed: 205}
	d, sched := logisticSetup(t, 120, 5, cfg)
	lp, err := CaptureLogistic(d, cfg, sched, testLin, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := lp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLogisticProvenance(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(120, 7, 206)
	want, _ := lp.Update(removed)
	got, _ := loaded.Update(removed)
	if dist := l2dist(got, want); dist != 0 {
		t.Fatalf("loaded logistic cache update differs by %v", dist)
	}
	if dist := l2dist(loaded.LinearizedModel(), lp.LinearizedModel()); dist != 0 {
		t.Fatal("linearized model not preserved")
	}
}

func TestMultinomialProvenanceRoundTrip(t *testing.T) {
	cfg := gbm.Config{Eta: 0.02, Lambda: 0.01, BatchSize: 30, Iterations: 40, Seed: 209}
	d, err := dataset.GenerateMulticlass("mc-persist", 150, 6, 3, 2.0, 33)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := gbm.NewSchedule(d.N(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := CaptureMultinomial(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := mp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMultinomialProvenance(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(150, 8, 210)
	want, err := mp.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if dist := l2dist(got, want); dist != 0 {
		t.Fatalf("loaded multinomial cache update differs by %v", dist)
	}
	if dist := l2dist(loaded.LinearizedModel(), mp.LinearizedModel()); dist != 0 {
		t.Fatal("linearized model not preserved")
	}
	if dist := l2dist(loaded.Model(), mp.Model()); dist != 0 {
		t.Fatal("exact model not preserved")
	}
	// Wrong class count fails closed.
	wrong := *d
	wrong.Classes = 4
	var buf2 bytes.Buffer
	if _, err := mp.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMultinomialProvenance(&buf2, &wrong); err == nil {
		t.Fatal("expected class-count/fingerprint mismatch")
	}
}

func TestSparseLogisticProvenanceRoundTrip(t *testing.T) {
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.1, BatchSize: 25, Iterations: 50, Seed: 211}
	d, err := dataset.GenerateSparseBinary("sp-persist", 120, 300, 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := gbm.NewSchedule(d.N(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := CaptureLogisticSparse(d, cfg, sched, testLin)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSparseLogisticProvenance(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(120, 6, 212)
	want, err := sp.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Update(removed)
	if err != nil {
		t.Fatal(err)
	}
	if dist := l2dist(got, want); dist != 0 {
		t.Fatalf("loaded sparse cache update differs by %v", dist)
	}
	// A different sparse dataset is rejected by fingerprint.
	other, err := dataset.GenerateSparseBinary("sp-other", 120, 300, 8, 44)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if _, err := sp.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSparseLogisticProvenance(&buf2, other); err == nil {
		t.Fatal("expected sparse fingerprint mismatch")
	}
}

func TestLoadRejectsWrongDataset(t *testing.T) {
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.02, BatchSize: 10, Iterations: 20, Seed: 207}
	d, sched := linearSetup(t, 50, 4, cfg)
	lp, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := lp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := dataset.GenerateRegression("other", 50, 4, 0.05, 999)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLinearProvenance(&buf, other); err == nil {
		t.Fatal("expected fingerprint mismatch error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	d, err := dataset.GenerateRegression("g", 20, 3, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLinearProvenance(bytes.NewReader([]byte("not a cache")), d); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := LoadLinearProvenance(bytes.NewReader(nil), d); err == nil {
		t.Fatal("expected EOF error")
	}
	if _, err := LoadLogisticProvenance(bytes.NewReader([]byte("XXXXjunkjunk")), d); err == nil {
		t.Fatal("expected magic error")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.02, BatchSize: 10, Iterations: 20, Seed: 208}
	d, sched := linearSetup(t, 40, 4, cfg)
	lp, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := lp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadLinearProvenance(bytes.NewReader(half), d); err == nil {
		t.Fatal("expected truncation error")
	}
}

// writeLoad serializes a mutated capture and returns the loader's error; every
// case below loaded without one (and panicked in a later Update) before the
// loaders checked the decoded shapes against the rebuilt schedule.
func writeLoad(t *testing.T, w interface {
	WriteTo(io.Writer) (int64, error)
}, load func(io.Reader) error) error {
	t.Helper()
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return load(&buf)
}

func TestLoadRejectsMisshapenLinearCache(t *testing.T) {
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.02, BatchSize: 10, Iterations: 20, Seed: 209}
	d, sched := linearSetup(t, 40, 4, cfg)
	lp, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	lp.caches[5] = &iterCache{full: mat.NewDense(3, 3)}
	err = writeLoad(t, lp, func(r io.Reader) error { _, err := LoadLinearProvenance(r, d); return err })
	if err == nil || !strings.Contains(err.Error(), "iteration 5 cache does not apply to 4-vectors") {
		t.Fatalf("3x3 full cache at m=4: err = %v", err)
	}
}

func TestLoadRejectsShortLogisticCoefficients(t *testing.T) {
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.01, BatchSize: 16, Iterations: 20, Seed: 210}
	d, sched := logisticSetup(t, 64, 5, cfg)
	lp, err := CaptureLogistic(d, cfg, sched, testLin, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	lp.bCoef[7] = lp.bCoef[7][:3]
	err = writeLoad(t, lp, func(r io.Reader) error { _, err := LoadLogisticProvenance(r, d); return err })
	if err == nil || !strings.Contains(err.Error(), "iteration 7 b has 3 entries, want 16") {
		t.Fatalf("cut b coefficients: err = %v", err)
	}
}

func TestLoadRejectsShortMultinomialCoefficients(t *testing.T) {
	d, err := dataset.GenerateMulticlass("mc-cut", 60, 4, 3, 2.5, 34)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 12, Iterations: 15, Seed: 35}
	sched, err := gbm.NewSchedule(d.N(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := CaptureMultinomial(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	// One class's worth (B entries) where q·B are indexed.
	mp.cCoef[2] = mp.cCoef[2][:12]
	err = writeLoad(t, mp, func(r io.Reader) error { _, err := LoadMultinomialProvenance(r, d); return err })
	if err == nil || !strings.Contains(err.Error(), "iteration 2 c has 12 entries, want 36") {
		t.Fatalf("cut c coefficients: err = %v", err)
	}
}

func TestLoadRejectsShortSparseCoefficients(t *testing.T) {
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.1, BatchSize: 25, Iterations: 30, Seed: 213}
	d, err := dataset.GenerateSparseBinary("sp-cut", 100, 200, 6, 45)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := gbm.NewSchedule(d.N(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := CaptureLogisticSparse(d, cfg, sched, testLin)
	if err != nil {
		t.Fatal(err)
	}
	for it := range sp.aCoef {
		sp.aCoef[it] = sp.aCoef[it][:3]
	}
	err = writeLoad(t, sp, func(r io.Reader) error { _, err := LoadSparseLogisticProvenance(r, d); return err })
	if err == nil || !strings.Contains(err.Error(), "iteration 0 a has 3 entries, want 25") {
		t.Fatalf("cut a coefficients: err = %v", err)
	}
}

// TestLoadRecomputesMaxRank: the stored maximum rank sizes Update's scratch,
// so the loader recomputes it from the caches rather than allocate what the
// stream says.
func TestLoadRecomputesMaxRank(t *testing.T) {
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.01, BatchSize: 16, Iterations: 20, Seed: 214}
	d, sched := logisticSetup(t, 64, 5, cfg)
	lp, err := CaptureLogistic(d, cfg, sched, testLin, Options{Mode: ModeSVD})
	if err != nil {
		t.Fatal(err)
	}
	want := lp.MaxRank()
	lp.maxRank = 1 << 40
	var loaded *LogisticProvenance
	err = writeLoad(t, lp, func(r io.Reader) (err error) { loaded, err = LoadLogisticProvenance(r, d); return err })
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.MaxRank(); got != want {
		t.Fatalf("loaded max rank %d, want %d", got, want)
	}
	if _, err := loaded.Update([]int{3}); err != nil {
		t.Fatal(err)
	}
}
