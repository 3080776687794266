package store

import (
	"errors"
	"math"
	"testing"

	"repro/priu"
)

// evalFailer wraps a WhatIfer updater so its cursors fail Eval once on
// demand — after Apply has already folded the batch.
type evalFailer struct {
	priu.Updater
	fail *bool
}

func (u evalFailer) WhatIf() (priu.WhatIfState, error) {
	st, err := u.Updater.(priu.WhatIfer).WhatIf()
	if err != nil {
		return nil, err
	}
	return &failingState{WhatIfState: st, fail: u.fail}, nil
}

type failingState struct {
	priu.WhatIfState
	fail *bool
}

func (s *failingState) Fork() priu.WhatIfState {
	return &failingState{WhatIfState: s.WhatIfState.Fork(), fail: s.fail}
}

func (s *failingState) Eval() (*priu.Model, error) {
	if *s.fail {
		*s.fail = false
		return nil, errors.New("forced eval failure")
	}
	return s.WhatIfState.Eval()
}

// TestFoldLockedMatchesUpdateAcrossCursorLoss commits batches through
// FoldLocked the way the service does and requires every committed model to
// be bitwise equal to Update of the log so far — across a forced Eval
// failure (the cursor must not keep the failed batch), an explicit drop,
// and a rebuild from a log that repeats an id (v1 tolerates repeats).
func TestFoldLockedMatchesUpdateAcrossCursorLoss(t *testing.T) {
	d, err := priu.GenerateBinary("st-fold", 80, 4, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	u, err := priu.Train("logistic-opt", d,
		priu.WithEta(0.05), priu.WithLambda(0.02), priu.WithBatchSize(20),
		priu.WithIterations(30), priu.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	fail := false
	sess := NewSession("sess-1", "logistic-opt", d, evalFailer{Updater: u, fail: &fail}, nil, nil)
	sess.Mu.Lock()
	defer sess.Mu.Unlock()

	commit := func(logged, fold []int) {
		t.Helper()
		m, err := sess.FoldLocked(fold)
		if err != nil {
			t.Fatalf("fold %v: %v", fold, err)
		}
		sess.Deleted = append(sess.Deleted, logged...)
		sess.Model = m
		want, err := u.Update(sess.Deleted)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Vec() {
			if math.Float64bits(v) != math.Float64bits(m.Vec()[i]) {
				t.Fatalf("after log %v: parameter %d is %v, Update gives %v", sess.Deleted, i, m.Vec()[i], v)
			}
		}
	}

	commit([]int{5, 1}, []int{5, 1})
	fail = true
	if _, err := sess.FoldLocked([]int{9}); err == nil {
		t.Fatal("forced Eval failure was not reported")
	}
	commit([]int{9, 2}, []int{9, 2})
	sess.DropCursorLocked()
	commit([]int{40, 33}, []int{40, 33})
	// A v1 batch repeating a logged id: the log keeps the repeat, the
	// cursor folds only the new id. Dropping the cursor makes the next fold
	// rebuild it from that log.
	commit([]int{1, 17}, []int{17})
	sess.DropCursorLocked()
	commit([]int{60}, []int{60})
	if _, err := sess.FoldLocked([]int{80}); err == nil {
		t.Fatal("out-of-range fold accepted")
	}
	commit([]int{3}, []int{3})
}
