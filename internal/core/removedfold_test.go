package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

// The reference loops below are the per-row removal folds foldRemoved
// replaced: one mat.Dot and two mat.Axpy calls per removed row. The tests
// hold every family's Update, and the opt families' cursor Eval, to their
// bits.

// refLinearUpdate is LinearProvenance.Update's phase loop with one
// mat.Dot/mat.Axpy pass per removed row.
func refLinearUpdate(lp *LinearProvenance, mask []bool) []float64 {
	m := lp.data.M()
	w := make([]float64, m)
	gw := make([]float64, m)
	scratch := make([]float64, m)
	eta, lambda := lp.cfg.Eta, lp.cfg.Lambda
	for t := 0; t < lp.cfg.Iterations; t++ {
		batch := lp.sched.Batch(t)
		lp.caches[t].apply(gw, w, scratch)
		bU := len(batch)
		var dGW, dDV []float64
		for _, i := range batch {
			if mask == nil || !mask[i] {
				continue
			}
			bU--
			if dGW == nil {
				dGW = scratch[:m]
				dDV = make([]float64, m)
				mat.ZeroVec(dGW)
			}
			xi := lp.data.X.Row(i)
			mat.Axpy(dGW, mat.Dot(xi, w), xi)
			mat.Axpy(dDV, lp.data.Y[i], xi)
		}
		decay := 1 - eta*lambda
		if bU == 0 {
			mat.ScaleVec(w, decay)
			continue
		}
		f := 2 * eta / float64(bU)
		dv := lp.dvecs[t]
		if dGW == nil {
			for j := range w {
				w[j] = decay*w[j] - f*gw[j] + f*dv[j]
			}
		} else {
			for j := range w {
				w[j] = decay*w[j] - f*(gw[j]-dGW[j]) + f*(dv[j]-dDV[j])
			}
		}
	}
	return w
}

// refLogisticUpdateInto is LogisticProvenance.updateInto with one
// mat.Dot/mat.Axpy pass per removed row.
func refLogisticUpdateInto(lp *LogisticProvenance, w []float64, mask []bool, t0, tEnd int) {
	m := lp.data.M()
	cw := make([]float64, m)
	scratch := make([]float64, m)
	dDV := make([]float64, m)
	eta, lambda := lp.cfg.Eta, lp.cfg.Lambda
	for t := t0; t < tEnd; t++ {
		batch := lp.sched.Batch(t)
		lp.caches[t].apply(cw, w, scratch)
		bU := len(batch)
		removedAny := false
		dGW := scratch[:m]
		for k, i := range batch {
			if mask == nil || !mask[i] {
				continue
			}
			bU--
			if !removedAny {
				removedAny = true
				mat.ZeroVec(dGW)
				mat.ZeroVec(dDV)
			}
			xi := lp.data.X.Row(i)
			mat.Axpy(dGW, lp.aCoef[t][k]*mat.Dot(xi, w), xi)
			mat.Axpy(dDV, lp.bCoef[t][k]*lp.data.Y[i], xi)
		}
		decay := 1 - eta*lambda
		if bU == 0 {
			mat.ScaleVec(w, decay)
			continue
		}
		f := eta / float64(bU)
		dv := lp.dvecs[t]
		if !removedAny {
			for j := range w {
				w[j] = decay*w[j] + f*(cw[j]+dv[j])
			}
		} else {
			for j := range w {
				w[j] = decay*w[j] + f*(cw[j]-dGW[j]+dv[j]-dDV[j])
			}
		}
	}
}

// refMultinomialUpdateInto is MultinomialProvenance.updateInto, serial over
// classes, with each class re-scanning the batch and one mat.Dot/mat.Axpy
// pass per removed row.
func refMultinomialUpdateInto(mp *MultinomialProvenance, w *mat.Dense, mask []bool, t0, tEnd int) {
	m := mp.data.M()
	eta, lambda := mp.cfg.Eta, mp.cfg.Lambda
	decay := 1 - eta*lambda
	cw := make([]float64, m)
	scratch := make([]float64, m)
	dGW := make([]float64, m)
	dDV := make([]float64, m)
	for k := 0; k < mp.q; k++ {
		wk := w.Row(k)
		for t := t0; t < tEnd; t++ {
			batch := mp.sched.Batch(t)
			b := len(batch)
			bU := mp.sched.SurvivorCount(t, mask)
			if bU == 0 {
				mat.ScaleVec(wk, decay)
				continue
			}
			mp.caches[t][k].apply(cw, wk, scratch)
			removedAny := false
			for j, i := range batch {
				if mask == nil || !mask[i] {
					continue
				}
				if !removedAny {
					removedAny = true
					mat.ZeroVec(dGW)
					mat.ZeroVec(dDV)
				}
				xi := mp.data.X.Row(i)
				mat.Axpy(dGW, mp.aCoef[t][k*b+j]*mat.Dot(xi, wk), xi)
				mat.Axpy(dDV, mp.cCoef[t][k*b+j], xi)
			}
			f := eta / float64(bU)
			dv := mp.dvecs[t][k]
			if !removedAny {
				for j := range wk {
					wk[j] = decay*wk[j] - f*(cw[j]+dv[j])
				}
			} else {
				for j := range wk {
					wk[j] = decay*wk[j] - f*(cw[j]-dGW[j]+dv[j]-dDV[j])
				}
			}
		}
	}
}

// refLogisticOptEval is logisticWhatIf.Eval run through LogisticOpt.finish
// with the reference phase 1.
func refLogisticOptEval(s *logisticWhatIf) []float64 {
	lo := s.lo
	cPrime := mat.CloneVec(lo.eig.Values)
	if len(s.log.ids) > 0 {
		for i := range cPrime {
			cPrime[i] += s.sSum[i]
		}
	}
	nEff := s.log.n - len(s.log.ids)
	w := make([]float64, lo.prov.data.M())
	mask, _, _ := gbm.Removals(s.log.n, s.log.ids)
	refLogisticUpdateInto(lo.prov, w, mask, 0, lo.ts)
	eta, lambda := lo.prov.cfg.Eta, lo.prov.cfg.Lambda
	zc := lo.eig.Q.MulVecT(w)
	dt := lo.eig.Q.MulVecT(s.dStar)
	rollRecurrence(zc, lo.fullIterations-lo.ts, func(i int) (gamma, beta, z0 float64) {
		return 1 - eta*lambda + eta*cPrime[i]/float64(nEff), eta * dt[i] / float64(nEff), zc[i]
	})
	return lo.eig.Q.MulVec(zc)
}

// refMultinomialOptEval is multinomialWhatIf.Eval run through
// MultinomialOpt.finish with the reference phase 1.
func refMultinomialOptEval(s *multinomialWhatIf) []float64 {
	mo := s.mo
	nEff := s.log.n - len(s.log.ids)
	w := mat.NewDense(mo.prov.q, mo.prov.data.M())
	mask, _, _ := gbm.Removals(s.log.n, s.log.ids)
	refMultinomialUpdateInto(mo.prov, w, mask, 0, mo.ts)
	eta, lambda := mo.prov.cfg.Eta, mo.prov.cfg.Lambda
	for k := 0; k < mo.prov.q; k++ {
		cPrime := mat.CloneVec(mo.eigs[k].Values)
		if len(s.log.ids) > 0 {
			for i := range cPrime {
				cPrime[i] -= s.sSum[k][i]
			}
		}
		zc := mo.eigs[k].Q.MulVecT(w.Row(k))
		dt := mo.eigs[k].Q.MulVecT(s.dStar[k])
		rollRecurrence(zc, mo.fullIterations-mo.ts, func(i int) (gamma, beta, z0 float64) {
			return 1 - eta*lambda - eta*cPrime[i]/float64(nEff), -eta * dt[i] / float64(nEff), zc[i]
		})
		copy(w.Row(k), mo.eigs[k].Q.MulVec(zc))
	}
	return w.Data()
}

func assertSameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: coordinate %d differs: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// foldRemovalSets returns the removal sets the equivalence test runs: the
// empty set, a few single rows, a third and a half of the rows, and a set
// holding every member of batch 1. It fails unless, across the sets, some
// batch loses every member and the removed-per-batch counts of at least four
// cover every residue mod 4, so the four-row passes, each tail length and the
// bU = 0 branch all run.
func foldRemovalSets(t *testing.T, n int, sched *gbm.Schedule, iters int) [][]int {
	t.Helper()
	whole := append([]int(nil), sched.Batch(1)...)
	inBatch, _, _ := gbm.Removals(n, whole)
	for _, i := range pickRemoved(n, n/5, 71) {
		if !inBatch[i] {
			whole = append(whole, i)
		}
	}
	sets := [][]int{nil, pickRemoved(n, 1, 72), pickRemoved(n, 3, 73), pickRemoved(n, n/3, 74), pickRemoved(n, n/2, 75), whole}
	var residues [4]bool
	wiped := false
	for _, set := range sets {
		mask, _, _ := gbm.Removals(n, set)
		for it := 0; it < iters; it++ {
			b := len(sched.Batch(it))
			removed := b - sched.SurvivorCount(it, mask)
			if removed >= 4 {
				residues[removed%4] = true
			}
			wiped = wiped || removed == b
		}
	}
	if residues != [4]bool{true, true, true, true} || !wiped {
		t.Fatalf("removal sets cover residues %v, whole batch %v", residues, wiped)
	}
	return sets
}

// foldModes are the cache layouts the equivalence test covers: full m×m
// matrices, and SVD factors with m > B.
var foldModes = []struct {
	name string
	m    int
	opts Options
}{
	{"full", 6, Options{Mode: ModeFull}},
	{"svd", 40, Options{Mode: ModeSVD}},
}

func TestRemovedFoldMatchesPerRowLoopsLinear(t *testing.T) {
	const n = 240
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.05, BatchSize: 24, Iterations: 40, Seed: 5}
	for _, mode := range foldModes {
		d, sched := linearSetup(t, n, mode.m, cfg)
		lp, err := CaptureLinear(d, cfg, sched, mode.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range foldRemovalSets(t, n, sched, cfg.Iterations) {
			got, err := lp.Update(set)
			if err != nil {
				t.Fatal(err)
			}
			mask, _, _ := gbm.Removals(n, set)
			assertSameBits(t, "linear/"+mode.name, got.Vec(), refLinearUpdate(lp, mask))
		}
	}
}

func TestRemovedFoldMatchesPerRowLoopsLogistic(t *testing.T) {
	const n = 240
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 24, Iterations: 40, Seed: 6}
	for _, mode := range foldModes {
		d, sched := logisticSetup(t, n, mode.m, cfg)
		lp, err := CaptureLogistic(d, cfg, sched, testLin, mode.opts)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := CaptureLogisticOpt(d, cfg, sched, testLin, mode.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range foldRemovalSets(t, n, sched, cfg.Iterations) {
			got, err := lp.Update(set)
			if err != nil {
				t.Fatal(err)
			}
			mask, _, _ := gbm.Removals(n, set)
			want := make([]float64, mode.m)
			refLogisticUpdateInto(lp, want, mask, 0, cfg.Iterations)
			assertSameBits(t, "logistic/"+mode.name, got.Vec(), want)

			st, err := lo.WhatIf()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Apply(set); err != nil {
				t.Fatal(err)
			}
			want = refLogisticOptEval(st.(*logisticWhatIf))
			ev, err := st.Eval()
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "logistic-opt Eval/"+mode.name, ev.Vec(), want)
			upd, err := lo.Update(set)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "logistic-opt Update/"+mode.name, upd.Vec(), want)
		}
	}
}

func TestRemovedFoldMatchesPerRowLoopsMultinomial(t *testing.T) {
	const n = 240
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 24, Iterations: 40, Seed: 7}
	for _, mode := range foldModes {
		d, err := dataset.GenerateMulticlass("fold-mc", n, mode.m, 3, 2.5, 41)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := gbm.NewSchedule(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := CaptureMultinomial(d, cfg, sched, mode.opts)
		if err != nil {
			t.Fatal(err)
		}
		mo, err := CaptureMultinomialOpt(d, cfg, sched, mode.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range foldRemovalSets(t, n, sched, cfg.Iterations) {
			got, err := mp.Update(set)
			if err != nil {
				t.Fatal(err)
			}
			mask, _, _ := gbm.Removals(n, set)
			want := mat.NewDense(3, mode.m)
			refMultinomialUpdateInto(mp, want, mask, 0, cfg.Iterations)
			assertSameBits(t, "multinomial/"+mode.name, got.Vec(), want.Data())

			st, err := mo.WhatIf()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Apply(set); err != nil {
				t.Fatal(err)
			}
			wantOpt := refMultinomialOptEval(st.(*multinomialWhatIf))
			ev, err := st.Eval()
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "multinomial-opt Eval/"+mode.name, ev.Vec(), wantOpt)
			upd, err := mo.Update(set)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "multinomial-opt Update/"+mode.name, upd.Vec(), wantOpt)
		}
	}
}

// optCursorCase is one opt capture under the cursor matrix: its cursor, its
// Update and the per-row reference Eval of a cursor.
type optCursorCase struct {
	name   string
	n, b   int
	whatIf func() (WhatIfState, error)
	update func([]int) (*gbm.Model, error)
	ref    func(WhatIfState) []float64
}

// optCursorCases captures both opt families at batch sizes that straddle the
// 64-bit word boundaries of the schedule-coordinate bitset, each with full
// caches and, up to B = 64, with SVD factors at m > B (past it the m > B
// eigensolves would dominate the package's test time).
func optCursorCases(t *testing.T) []optCursorCase {
	t.Helper()
	var cases []optCursorCase
	for _, b := range []int{63, 64, 65, 130} {
		for _, mode := range []struct {
			name string
			m    int
			opts Options
		}{{"full", 6, Options{Mode: ModeFull}}, {"svd", b + 7, Options{Mode: ModeSVD}}} {
			if mode.name == "svd" && b > 64 {
				continue
			}
			n := 3 * b
			cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: b, Iterations: 8, Seed: int64(b)}
			sched, err := gbm.NewSchedule(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bin, err := dataset.GenerateBinary("cursor-lo", n, mode.m, 1.2, int64(b))
			if err != nil {
				t.Fatal(err)
			}
			lo, err := CaptureLogisticOpt(bin, cfg, sched, testLin, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			mc, err := dataset.GenerateMulticlass("cursor-mo", n, mode.m, 3, 2.5, int64(b))
			if err != nil {
				t.Fatal(err)
			}
			mo, err := CaptureMultinomialOpt(mc, cfg, sched, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases,
				optCursorCase{
					name: fmt.Sprintf("logistic-opt/B=%d/%s", b, mode.name), n: n, b: b,
					whatIf: lo.WhatIf, update: lo.Update,
					ref: func(s WhatIfState) []float64 { return refLogisticOptEval(s.(*logisticWhatIf)) },
				},
				optCursorCase{
					name: fmt.Sprintf("multinomial-opt/B=%d/%s", b, mode.name), n: n, b: b,
					whatIf: mo.WhatIf, update: mo.Update,
					ref: func(s WhatIfState) []float64 { return refMultinomialOptEval(s.(*multinomialWhatIf)) },
				})
		}
	}
	return cases
}

// TestCursorMatrixBitwise holds the opt cursors' cached schedule-coordinate
// removals and lazily refreshed ΔD to Update's bits and to the per-row
// reference: a random log split into random Apply batches, with Evals
// interleaved at random (Eval → Apply → Eval), a Fork taken while
// iterations are stale and evaluated in child and parent — in both orders —
// and repeated Evals with no Apply between.
func TestCursorMatrixBitwise(t *testing.T) {
	for ci, c := range optCursorCases(t) {
		rng := rand.New(rand.NewSource(int64(ci) + 90))
		perm := rng.Perm(c.n)
		log, extra := perm[:c.n/2], perm[c.n/2:c.n/2+2]
		check := func(what string, s WhatIfState, log []int) {
			t.Helper()
			ev, err := s.Eval()
			if err != nil {
				t.Fatal(err)
			}
			upd, err := c.update(log)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, c.name+" "+what+" vs Update", ev.Vec(), upd.Vec())
			assertSameBits(t, c.name+" "+what+" vs reference", ev.Vec(), c.ref(s))
		}
		st, err := c.whatIf()
		if err != nil {
			t.Fatal(err)
		}
		applied, forked := 0, false
		for applied < len(log) {
			k := min(applied+1+rng.Intn(c.b/2), len(log))
			if err := st.Apply(log[applied:k]); err != nil {
				t.Fatal(err)
			}
			applied = k
			if !forked && applied >= len(log)/2 && applied < len(log) {
				// Evaluate, then apply one more row, so only that row's
				// iterations are stale when the fork is taken; the child's
				// extra rows stale others.
				forked = true
				check("before fork", st, log[:applied])
				if err := st.Apply(log[applied : applied+1]); err != nil {
					t.Fatal(err)
				}
				applied++
				child := st.Fork()
				childLog := append(append([]int(nil), log[:applied]...), extra...)
				if err := child.Apply(extra); err != nil {
					t.Fatal(err)
				}
				first, second := "fork child", "fork parent"
				firstSt, secondSt, firstLog, secondLog := child, st, childLog, log[:applied]
				if ci%2 == 1 {
					first, second = second, first
					firstSt, secondSt, firstLog, secondLog = secondSt, firstSt, secondLog, firstLog
				}
				check(first, firstSt, firstLog)
				check(second, secondSt, secondLog)
				check(first+" again", firstSt, firstLog)
				continue
			}
			if rng.Intn(3) == 0 {
				check(fmt.Sprintf("Eval at %d", applied), st, log[:applied])
			}
		}
		check("final Eval", st, log)
		check("repeated Eval", st, log)
	}
}

// TestLinearUpdateAllocsFlatInIterations: Update sizes its scratch once per
// call, not per iteration with a removed row.
func TestLinearUpdateAllocsFlatInIterations(t *testing.T) {
	const n = 240
	removed := pickRemoved(n, n/4, 76)
	allocs := func(iters int) float64 {
		cfg := gbm.Config{Eta: 0.01, Lambda: 0.05, BatchSize: 24, Iterations: iters, Seed: 8}
		d, sched := linearSetup(t, n, 6, cfg)
		lp, err := CaptureLinear(d, cfg, sched, Options{Mode: ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := lp.Update(removed); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10), allocs(80)
	if long > short {
		t.Fatalf("Update allocates %v times at τ=80 vs %v at τ=10", long, short)
	}
}
