package priu

import (
	"testing"
)

func bitwiseEqual(a, b *Model) bool {
	av, bv := a.Vec(), b.Vec()
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

func TestWhatIfPlannerIncrementalBitwise(t *testing.T) {
	testWorkers(t)
	u, err := Train(FamilyLinearOpt, denseSet(t, FamilyLinearOpt), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWhatIfPlanner(u)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Incremental() {
		t.Fatal("linear-opt should plan incrementally")
	}
	sets := [][]int{
		{3, 17, 42},
		{3, 17, 42, 60}, // extends the first: full prefix reuse
		{3, 17, 55},     // diverges after {3, 17}
		{3, 17, 42},     // duplicate: memoized leaf
		{90, 95},        // disjoint
		{},              // empty set = current model
		{3},             // ends inside the first set's path
		{90, 95, 97, 99, 101},
		{90, 95, 97, 100}, // diverges inside the previous set's new suffix
	}
	results := p.EvalBatch(sets, 2)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("set %d: %v", i, r.Err)
		}
		want, err := u.Update(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(r.Model, want) {
			t.Fatalf("set %d: planner result differs from Update", i)
		}
	}
	if results[0].Model != results[3].Model {
		t.Fatal("duplicate set should return the memoized model")
	}
	// Shared prefixes were reused: {3,17,42} (3 hits) + {3,17} (2 hits) +
	// the duplicate's full walk (3 hits) = 8.
	if p.CacheHits() < 8 {
		t.Fatalf("cache hits = %d, want >= 8", p.CacheHits())
	}
}

// TestWhatIfEvalBatchConcurrentOptForks: EvalBatch evaluates sibling forks
// of both phase-1 opt families on two workers — each Eval refreshes its own
// fork's cached ΔD — with Update's bits. Under -race it checks that sibling
// forks share no written state.
func TestWhatIfEvalBatchConcurrentOptForks(t *testing.T) {
	prev := Workers()
	SetWorkers(2)
	t.Cleanup(func() { SetWorkers(prev) })
	sets := [][]int{
		{1, 4, 9, 16, 25},
		{1, 4, 9, 16, 36},
		{1, 4, 9, 49},
		{1, 4, 64, 81},
		{2, 3},
		{1, 4, 9, 16, 25, 100},
	}
	for _, family := range []string{FamilyLogisticOpt, FamilyMultinomialOpt} {
		u, err := Train(family, denseSet(t, family), testOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewWhatIfPlanner(u)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Incremental() {
			t.Fatalf("%s should plan incrementally", family)
		}
		for i, r := range p.EvalBatch(sets, 2) {
			if r.Err != nil {
				t.Fatalf("%s set %d: %v", family, i, r.Err)
			}
			want, err := u.Update(sets[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bitwiseEqual(r.Model, want) {
				t.Fatalf("%s set %d: concurrent EvalBatch result differs from Update", family, i)
			}
		}
	}
}

func TestWhatIfPlannerFallbackFamily(t *testing.T) {
	testWorkers(t)
	// Base linear has no WhatIfer capability: the planner must fall back to
	// pure replay with identical results.
	u, err := Train(FamilyLinear, denseSet(t, FamilyLinear), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWhatIfPlanner(u)
	if err != nil {
		t.Fatal(err)
	}
	if p.Incremental() {
		t.Fatal("base linear should use the replay fallback")
	}
	for _, ids := range [][]int{{2, 9}, {2, 9, 30}, nil} {
		got, err := p.Eval(ids)
		if err != nil {
			t.Fatal(err)
		}
		want, err := u.Update(ids)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(got, want) {
			t.Fatalf("replay fallback differs from Update for %v", ids)
		}
	}
}

func TestWhatIfPlannerNodeCap(t *testing.T) {
	testWorkers(t)
	u, err := Train(FamilyLinearOpt, denseSet(t, FamilyLinearOpt), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWhatIfPlanner(u)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxNodes = 3 // root + 2 retained nodes
	sets := [][]int{{1, 2}, {1, 3, 5}, {4, 6}}
	results := p.EvalBatch(sets, 1)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("set %d: %v", i, r.Err)
		}
		want, err := u.Update(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(r.Model, want) {
			t.Fatalf("set %d: capped planner result differs from Update", i)
		}
	}
	if p.Nodes() > 3 {
		t.Fatalf("retained nodes = %d, want <= cap 3", p.Nodes())
	}
}

func TestWhatIfPlannerRejectsBadSets(t *testing.T) {
	testWorkers(t)
	u, err := Train(FamilyLinearOpt, denseSet(t, FamilyLinearOpt), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWhatIfPlanner(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{5, 5}, {9, 3}, {-1}, {100000}} {
		if _, err := p.Eval(bad); err == nil {
			t.Fatalf("set %v should be rejected", bad)
		}
	}
	// The trie still works after rejections.
	got, err := p.Eval([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := u.Update([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(got, want) {
		t.Fatal("post-rejection eval differs from Update")
	}
}

// countingUpdater wraps an updater's what-if cursors to count, across the
// whole trie, how many states the planner forks and how many ids it applies.
type countingUpdater struct {
	Updater
	forks, applied int
}

func (u *countingUpdater) WhatIf() (WhatIfState, error) {
	st, err := u.Updater.(WhatIfer).WhatIf()
	if err != nil {
		return nil, err
	}
	return countingState{st, u}, nil
}

type countingState struct {
	WhatIfState
	u *countingUpdater
}

func (s countingState) Fork() WhatIfState {
	s.u.forks++
	return countingState{s.WhatIfState.Fork(), s.u}
}

func (s countingState) Apply(ids []int) error {
	s.u.applied += len(ids)
	return s.WhatIfState.Apply(ids)
}

// TestWhatIfPlannerForksWhereSetsMeet: a new suffix costs one fork however
// long it is; a node on it gets its own state only when a later set ends or
// diverges there.
func TestWhatIfPlannerForksWhereSetsMeet(t *testing.T) {
	testWorkers(t)
	base, err := Train(FamilyLogisticOpt, denseSet(t, FamilyLogisticOpt), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	u := &countingUpdater{Updater: base}
	p, err := NewWhatIfPlanner(u)
	if err != nil {
		t.Fatal(err)
	}
	long := make([]int, 40)
	for i := range long {
		long[i] = 2 * i
	}
	extended := append(append([]int(nil), long...), 95)
	diverged := append(append([]int(nil), long[:20]...), 41)
	steps := []struct {
		set            []int
		forks, applied int
	}{
		{long, 1, 40},     // one fork applies the whole new suffix
		{extended, 2, 41}, // the first leaf has a state: fork it once
		// Node 20 has no state yet: fork the root and apply 20 ids, then
		// fork node 20 for the new id.
		{diverged, 4, 62},
		{long[:20], 4, 62}, // node 20 now has a state
	}
	for i, st := range steps {
		got, err := p.Eval(st.set)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Update(st.set)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(got, want) {
			t.Fatalf("step %d: planner result differs from Update", i)
		}
		if u.forks != st.forks || u.applied != st.applied {
			t.Fatalf("step %d: %d forks and %d applied ids, want %d and %d", i, u.forks, u.applied, st.forks, st.applied)
		}
	}
}
