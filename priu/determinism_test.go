package priu

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/par"
)

// TestCaptureDeterministicAcrossWorkers locks in the contract behind the
// parallel capture/update paths: with the par cutoffs pinned, training,
// provenance capture, snapshot serialization, incremental updates and
// commits through the live cursor produce bitwise-identical results at any
// worker count. Tiny cutoffs force every parallel kernel to engage even at
// test sizes.
func TestCaptureDeterministicAcrossWorkers(t *testing.T) {
	pc, pm := par.Cutoffs()
	par.SetCutoffs(64, 64)
	t.Cleanup(func() { par.SetCutoffs(pc, pm) })

	sds, err := GenerateSparseBinary("t-det-sparse", 200, 40, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	removed := []int{3, 17, 42, 99, 140}
	commitLog := []int{99, 3, 140, 17, 42}

	families := []string{
		FamilyLinear, FamilyLinearOpt, FamilyLogistic, FamilyLogisticOpt,
		FamilyMultinomial, FamilyMultinomialOpt, FamilySparseLogistic,
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			var ds TrainingSet
			if fam == FamilySparseLogistic {
				ds = sds
			} else {
				ds = denseSet(t, fam)
			}
			modes := []struct {
				name string
				opt  Option
			}{
				{"full", WithFullCaches()},
				{"svd", WithSVD(0.01)},
			}
			if fam == FamilySparseLogistic {
				// The sparse path caches coefficients only; cache mode is moot.
				modes = modes[:1]
			}
			for _, mode := range modes {
				type capture struct {
					model, updated, committed []float64
					snap                      []byte
				}
				run := func() capture {
					opts := append(testOpts(), mode.opt)
					u, err := Train(fam, ds, opts...)
					if err != nil {
						t.Fatalf("Train(%s/%s): %v", fam, mode.name, err)
					}
					var snap bytes.Buffer
					if err := WriteSnapshot(&snap, fam, ds, u); err != nil {
						t.Fatalf("WriteSnapshot(%s/%s): %v", fam, mode.name, err)
					}
					upd, err := u.Update(removed)
					if err != nil {
						t.Fatalf("Update(%s/%s): %v", fam, mode.name, err)
					}
					// The commit path: a cursor rebuilt from a logged prefix,
					// then one out-of-order batch folded on top — the bits of
					// Update of the log in commit order.
					cur, err := ReplayLog(u, ds.N(), commitLog[:2])
					if err != nil {
						t.Fatalf("ReplayLog(%s/%s): %v", fam, mode.name, err)
					}
					if err := cur.Apply(commitLog[2:]); err != nil {
						t.Fatalf("cursor Apply(%s/%s): %v", fam, mode.name, err)
					}
					committed, err := cur.Eval()
					if err != nil {
						t.Fatalf("cursor Eval(%s/%s): %v", fam, mode.name, err)
					}
					direct, err := u.Update(commitLog)
					if err != nil {
						t.Fatalf("Update(%s/%s, log): %v", fam, mode.name, err)
					}
					if !bitwiseEqual(committed, direct) {
						t.Fatalf("%s/%s: cursor commit differs from Update(log)", fam, mode.name)
					}
					c := capture{snap: snap.Bytes()}
					c.model = append(c.model, u.Model().W.Data()...)
					c.updated = append(c.updated, upd.W.Data()...)
					c.committed = append(c.committed, committed.W.Data()...)
					return c
				}
				prev := SetWorkers(1)
				base := run()
				for _, w := range []int{2, 8} {
					SetWorkers(w)
					got := run()
					for i, v := range base.model {
						if math.Float64bits(v) != math.Float64bits(got.model[i]) {
							t.Fatalf("%s/%s: model differs at workers=%d (param %d: %v vs %v)",
								fam, mode.name, w, i, v, got.model[i])
						}
					}
					for i, v := range base.updated {
						if math.Float64bits(v) != math.Float64bits(got.updated[i]) {
							t.Fatalf("%s/%s: updated model differs at workers=%d (param %d: %v vs %v)",
								fam, mode.name, w, i, v, got.updated[i])
						}
					}
					for i, v := range base.committed {
						if math.Float64bits(v) != math.Float64bits(got.committed[i]) {
							t.Fatalf("%s/%s: cursor commit differs at workers=%d (param %d: %v vs %v)",
								fam, mode.name, w, i, v, got.committed[i])
						}
					}
					if !bytes.Equal(base.snap, got.snap) {
						t.Fatalf("%s/%s: snapshot bytes differ at workers=%d", fam, mode.name, w)
					}
				}
				SetWorkers(prev)
			}
		})
	}
}

// TestRestoreBitwiseAcrossCutoffs: a session captured and committed under one
// set of par cutoffs, then restored from its snapshot and replayed under
// another, reaches the same bits. The contract is that the bits do not depend
// on the worker count or the chunk grain, so a spilled session comes back
// exact on a rebooted or different host whatever its parallelism. The sizes
// put the parallel loops on several chunks under the small cutoff and on one
// under the large.
func TestRestoreBitwiseAcrossCutoffs(t *testing.T) {
	pc, pm := par.Cutoffs()
	t.Cleanup(func() { par.SetCutoffs(pc, pm) })

	const n = 600
	sets := map[string]func() (TrainingSet, error){
		FamilyLinear:         func() (TrainingSet, error) { return GenerateRegression("t-cut-lin", n, 12, 0.1, 3) },
		FamilyLogistic:       func() (TrainingSet, error) { return GenerateBinary("t-cut-log", n, 12, 0.8, 4) },
		FamilyMultinomial:    func() (TrainingSet, error) { return GenerateMulticlass("t-cut-mult", n, 12, 3, 1.5, 5) },
		FamilySparseLogistic: func() (TrainingSet, error) { return GenerateSparseBinary("t-cut-sparse", n, 40, 6, 7) },
	}
	sets[FamilyLinearOpt] = sets[FamilyLinear]
	sets[FamilyLogisticOpt] = sets[FamilyLogistic]
	sets[FamilyMultinomialOpt] = sets[FamilyMultinomial]
	commitLog := []int{99, 3, 540, 17, 42, 311}

	for _, fam := range Families() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			ds, err := sets[fam]()
			if err != nil {
				t.Fatal(err)
			}
			for _, cut := range [][2]int{{64, 1 << 21}, {1 << 21, 64}} {
				par.SetCutoffs(cut[0], cut[0])
				u, err := Train(fam, ds, testOpts()...)
				if err != nil {
					t.Fatalf("Train: %v", err)
				}
				cur, err := ReplayLog(u, ds.N(), commitLog[:2])
				if err != nil {
					t.Fatalf("ReplayLog: %v", err)
				}
				if err := cur.Apply(commitLog[2:]); err != nil {
					t.Fatalf("cursor Apply: %v", err)
				}
				committed, err := cur.Eval()
				if err != nil {
					t.Fatalf("cursor Eval: %v", err)
				}
				direct, err := u.Update(commitLog)
				if err != nil {
					t.Fatalf("Update: %v", err)
				}
				var snap bytes.Buffer
				if err := WriteSessionSnapshot(&snap, fam, ds, u, commitLog); err != nil {
					t.Fatalf("WriteSessionSnapshot: %v", err)
				}

				par.SetCutoffs(cut[1], cut[1])
				_, rds, ru, deleted, err := ReadSessionSnapshot(&snap)
				if err != nil {
					t.Fatalf("ReadSessionSnapshot: %v", err)
				}
				replayed, err := ReplayLog(ru, rds.N(), deleted)
				if err != nil {
					t.Fatalf("ReplayLog after restore: %v", err)
				}
				got, err := replayed.Eval()
				if err != nil {
					t.Fatalf("Eval after restore: %v", err)
				}
				restoredUpd, err := ru.Update(deleted)
				if err != nil {
					t.Fatalf("Update after restore: %v", err)
				}
				assertSameBits(t, fmt.Sprintf("cutoffs %d→%d: replayed commit", cut[0], cut[1]), committed, got)
				assertSameBits(t, fmt.Sprintf("cutoffs %d→%d: Update", cut[0], cut[1]), direct, restoredUpd)
			}
		})
	}
}

// assertSameBits fails unless a and b hold bitwise-identical parameters.
func assertSameBits(t *testing.T, what string, a, b *Model) {
	t.Helper()
	av, bv := a.Vec(), b.Vec()
	if len(av) != len(bv) {
		t.Fatalf("%s: %d vs %d parameters", what, len(av), len(bv))
	}
	for i, v := range av {
		if math.Float64bits(v) != math.Float64bits(bv[i]) {
			t.Fatalf("%s: param %d differs: %v vs %v (|Δ| = %.3g)", what, i, v, bv[i], math.Abs(v-bv[i]))
		}
	}
}
