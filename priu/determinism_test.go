package priu

import (
	"bytes"
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
