package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/interp"
	"repro/internal/mat"
	"repro/internal/par"
)

// The dense references below are the sparse-logistic loops as they stood
// before the scaled-weight step: every iteration accumulates the data term
// into a zeroed m-vector and then decays and updates all m coordinates.
// gbm.SparseSGD must agree with them to round-off.

func denseSparseStep(w, step []float64, decay, eta float64, bU int) {
	if bU == 0 {
		mat.ScaleVec(w, decay)
		return
	}
	f := eta / float64(bU)
	for j := range w {
		w[j] = decay*w[j] + f*step[j]
	}
}

// denseTrainSparse is the reference BaseL retrainer (exact sigmoid).
func denseTrainSparse(d *dataset.SparseDataset, cfg gbm.Config, sched *gbm.Schedule, mask []bool) []float64 {
	w := make([]float64, d.M())
	step := make([]float64, d.M())
	for t := 0; t < cfg.Iterations; t++ {
		mat.ZeroVec(step)
		bU := 0
		for _, i := range sched.Batch(t) {
			if mask != nil && mask[i] {
				continue
			}
			bU++
			yi := d.Y[i]
			d.X.AddScaledRow(step, i, yi*interp.F(yi*d.X.RowDot(i, w)))
		}
		denseSparseStep(w, step, 1-cfg.Eta*cfg.Lambda, cfg.Eta, bU)
	}
	return w
}

// denseCaptureSparse is the reference linearized training run.
func denseCaptureSparse(d *dataset.SparseDataset, cfg gbm.Config, sched *gbm.Schedule, lin *interp.Linearizer) []float64 {
	w := make([]float64, d.M())
	step := make([]float64, d.M())
	for t := 0; t < cfg.Iterations; t++ {
		batch := sched.Batch(t)
		mat.ZeroVec(step)
		for _, i := range batch {
			yi := d.Y[i]
			z := yi * d.X.RowDot(i, w)
			a, b := lin.Coefficients(z)
			d.X.AddScaledRow(step, i, a*(z*yi)+b*yi)
		}
		denseSparseStep(w, step, 1-cfg.Eta*cfg.Lambda, cfg.Eta, len(batch))
	}
	return w
}

// denseReplaySparse is the reference PrIU update over sp's cached
// coefficients.
func denseReplaySparse(sp *SparseLogisticProvenance, mask []bool) []float64 {
	d, cfg := sp.data, sp.cfg
	w := make([]float64, d.M())
	step := make([]float64, d.M())
	for t := 0; t < cfg.Iterations; t++ {
		mat.ZeroVec(step)
		bU := 0
		for k, i := range sp.sched.Batch(t) {
			if mask != nil && mask[i] {
				continue
			}
			bU++
			d.X.AddScaledRow(step, i, sp.aCoef[t][k]*d.X.RowDot(i, w)+sp.bCoef[t][k]*d.Y[i])
		}
		denseSparseStep(w, step, 1-cfg.Eta*cfg.Lambda, cfg.Eta, bU)
	}
	return w
}

func relErr(got, want []float64) float64 {
	num, den := 0.0, 0.0
	for j := range want {
		num += (got[j] - want[j]) * (got[j] - want[j])
		den += want[j] * want[j]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func TestSparseScaledStepMatchesDenseLoop(t *testing.T) {
	d, err := dataset.GenerateSparseBinary("sp-scaled", 160, 300, 8, 61)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  gbm.Config
		// emptyBatch removes every member of that batch (-1: none).
		emptyBatch int
	}{
		{"lambda=0", gbm.Config{Eta: 0.1, Lambda: 0, BatchSize: 20, Iterations: 60, Seed: 62}, -1},
		{"eta*lambda=1", gbm.Config{Eta: 0.5, Lambda: 2, BatchSize: 20, Iterations: 60, Seed: 63}, -1},
		// 0.5^400 ≈ 4e-121: the scale leaves [1e-100, 1e100] at t ≈ 333
		// and is folded back into v.
		{"renormalize", gbm.Config{Eta: 0.5, Lambda: 1, BatchSize: 20, Iterations: 400, Seed: 64}, -1},
		{"empty-batch", gbm.Config{Eta: 0.1, Lambda: 0.05, BatchSize: 20, Iterations: 60, Seed: 65}, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := gbm.NewSchedule(d.N(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			removed := pickRemoved(d.N(), 10, 66)
			if tc.emptyBatch >= 0 {
				removed = append(removed, sched.Batch(tc.emptyBatch)...)
			}
			mask, _, err := gbm.Removals(d.N(), removed)
			if err != nil {
				t.Fatal(err)
			}
			if tc.emptyBatch >= 0 && sched.SurvivorCount(tc.emptyBatch, mask) != 0 {
				t.Fatal("batch not emptied")
			}
			sp, err := CaptureLogisticSparse(d, tc.cfg, sched, testLin)
			if err != nil {
				t.Fatal(err)
			}
			base, err := gbm.TrainLogisticSparse(d, tc.cfg, sched, mask)
			if err != nil {
				t.Fatal(err)
			}
			upd, err := sp.Update(removed)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				what      string
				got, want []float64
			}{
				{"Minit", sp.Model().W.Row(0), denseTrainSparse(d, tc.cfg, sched, nil)},
				{"BaseL", base.W.Row(0), denseTrainSparse(d, tc.cfg, sched, mask)},
				{"linearized", sp.LinearizedModel().W.Row(0), denseCaptureSparse(d, tc.cfg, sched, testLin)},
				{"Update", upd.W.Row(0), denseReplaySparse(sp, mask)},
			} {
				if e := relErr(c.got, c.want); e > 1e-12 || math.IsNaN(e) {
					t.Errorf("%s: relative error %g vs the dense loop", c.what, e)
				}
			}
		})
	}
}

// TestSparseUpdateNilIsLinearizedModel: with nothing removed the replay
// repeats capture's steps exactly. The batch is wide enough that a replay
// split into deterministic chunks (MinWork/60 ≈ 546 rows per chunk at 60
// non-zeros a row) would fold the data term in another order.
func TestSparseUpdateNilIsLinearizedModel(t *testing.T) {
	d, err := dataset.GenerateSparseBinary("sp-wide", 1400, 2000, 60, 71)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.5, BatchSize: 1200, Iterations: 12, Seed: 72}
	if cfg.BatchSize <= par.DetGrain(60) {
		t.Fatalf("batch %d fits one chunk of %d rows", cfg.BatchSize, par.DetGrain(60))
	}
	sched, err := gbm.NewSchedule(d.N(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := CaptureLogisticSparse(d, cfg, sched, testLin)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		prev := par.SetWorkers(workers)
		got, err := sp.Update(nil)
		par.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "Update(nil) vs LinearizedModel", got, sp.LinearizedModel())
	}
}

// TestSparseUpdateAllocsFlatInIterations: the replay allocates its state once,
// not per iteration.
func TestSparseUpdateAllocsFlatInIterations(t *testing.T) {
	d, err := dataset.GenerateSparseBinary("sp-allocs", 300, 2000, 20, 81)
	if err != nil {
		t.Fatal(err)
	}
	removed := pickRemoved(d.N(), 5, 82)
	allocs := func(iters int) float64 {
		cfg := gbm.Config{Eta: 0.05, Lambda: 0.5, BatchSize: 50, Iterations: iters, Seed: 83}
		sched, err := gbm.NewSchedule(d.N(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := CaptureLogisticSparse(d, cfg, sched, testLin)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := sp.Update(removed); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10), allocs(80)
	if long > short {
		t.Fatalf("Update allocates %v times at τ=80 vs %v at τ=10", long, short)
	}
}
