package priu

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gbm"
	"repro/internal/par"
)

// What-if planning: evaluate a batch of candidate deletion sets against one
// updater without committing anything, sharing the work of common prefixes.
//
// A WhatIfPlanner lays the candidate sets out as a prefix tree over removal
// ids: every trie node holds a forkable WhatIfState with that id-prefix
// already applied, so two sets sharing a prefix pay for it once — the second
// set walks the existing nodes (counted as cache hits) and only forks where
// it diverges. The idiom follows streaming query planners (plan once, reuse
// across a batch); here the "plan" is the partially-applied updater state.

// WhatIfState is the forkable what-if cursor capability (see
// internal/core): Apply folds removed ids — distinct across all calls, in
// any order — onto the cursor's log, Fork branches an independent copy, Eval
// returns the model Update of the applied log would produce without mutating
// the updater. Log order is the canonical fold order: a cursor that applied
// a deletion log batch by batch evaluates to the exact bits of one Update of
// that log, which is what lets a session commit in O(batch).
type WhatIfState = core.WhatIfState

// WhatIfer is the optional capability of updaters that can answer what-if
// queries incrementally. The PrIU-opt families implement it; for every other
// family the planner falls back to pure replay (Update is a pure function of
// the removal set for all built-in families, so evaluating a candidate set
// never touches the updater's state — the moral equivalent of
// snapshot-restore-into-scratch without the IO).
type WhatIfer interface {
	WhatIf() (WhatIfState, error)
}

// DefaultWhatIfMaxNodes caps the retained prefix-tree size. Sets planned
// past the cap still evaluate correctly; their divergent suffix states are
// just not retained for reuse.
const DefaultWhatIfMaxNodes = 1 << 15

// WhatIfResult is one candidate set's evaluation. Seconds is the time the
// set's tail evaluation took when it ran (memoized duplicates report the
// original evaluation's cost).
type WhatIfResult struct {
	Model   *Model
	Err     error
	Seconds float64
}

type whatifNode struct {
	state    WhatIfState
	children map[int]*whatifNode
	model    *Model
	err      error
	secs     float64
	done     bool
}

// WhatIfPlanner plans candidate deletion sets as a shared prefix tree over
// one updater. Planning (Eval / EvalBatch calls) must happen from a single
// goroutine; EvalBatch fans the per-leaf evaluations out internally.
type WhatIfPlanner struct {
	root  *whatifNode
	nodes int
	// MaxNodes bounds the retained tree (default DefaultWhatIfMaxNodes);
	// adjust before the first Eval.
	MaxNodes    int
	hits        int64
	incremental bool
}

// NewWhatIfPlanner builds a planner over the updater: incremental when the
// updater implements WhatIfer, pure-replay otherwise. An updater whose
// WhatIf capability fails to initialize (e.g. a provenance mode the
// incremental cursor does not cover) degrades to replay rather than erroring
// — the results are identical either way.
func NewWhatIfPlanner(u Updater) (*WhatIfPlanner, error) {
	st, inc := newWhatIfState(u)
	return &WhatIfPlanner{
		root:        &whatifNode{state: st},
		nodes:       1,
		MaxNodes:    DefaultWhatIfMaxNodes,
		incremental: inc,
	}, nil
}

// Incremental reports whether the planner runs on a WhatIfer capability (vs
// pure replay).
func (p *WhatIfPlanner) Incremental() bool { return p.incremental }

// CacheHits returns how many prefix-tree edges were reused across the sets
// planned so far — the work the sharing saved, in applied-id units.
func (p *WhatIfPlanner) CacheHits() int64 { return p.hits }

// Nodes returns the retained tree size (including the root).
func (p *WhatIfPlanner) Nodes() int { return p.nodes }

// leaf walks/extends the trie to the node holding exactly ids (which must be
// strictly ascending: a set has one canonical path, so overlapping sets
// share their prefixes). Past MaxNodes the remaining suffix is applied onto
// a transient fork that is not retained.
func (p *WhatIfPlanner) leaf(ids []int) (*whatifNode, error) {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return nil, fmt.Errorf("priu: whatif set must be strictly ascending (%d after %d)", ids[i], ids[i-1])
		}
	}
	cur := p.root
	for i, id := range ids {
		if child, ok := cur.children[id]; ok {
			p.hits++
			cur = child
			continue
		}
		if p.nodes >= p.MaxNodes {
			st := cur.state.Fork()
			if err := st.Apply(ids[i:]); err != nil {
				return nil, err
			}
			return &whatifNode{state: st}, nil
		}
		st := cur.state.Fork()
		if err := st.Apply([]int{id}); err != nil {
			return nil, err
		}
		child := &whatifNode{state: st}
		if cur.children == nil {
			cur.children = make(map[int]*whatifNode)
		}
		cur.children[id] = child
		p.nodes++
		cur = child
	}
	return cur, nil
}

// evalNode evaluates a node once, memoizing the model on the node so a later
// identical set returns it without recomputation.
func evalNode(n *whatifNode) (*Model, error) {
	if !n.done {
		start := time.Now()
		n.model, n.err = n.state.Eval()
		n.secs = time.Since(start).Seconds()
		n.done = true
	}
	return n.model, n.err
}

// Eval evaluates one candidate set (ids strictly ascending, no duplicates)
// against the planner's updater.
func (p *WhatIfPlanner) Eval(ids []int) (*Model, error) {
	n, err := p.leaf(ids)
	if err != nil {
		return nil, err
	}
	return evalNode(n)
}

// EvalBatch plans all sets, then evaluates the distinct unevaluated leaves
// concurrently on the shared worker pool with at most workers evaluators
// (workers ≤ 1 evaluates serially). Results align with sets.
func (p *WhatIfPlanner) EvalBatch(sets [][]int, workers int) []WhatIfResult {
	out := make([]WhatIfResult, len(sets))
	leaves := make([]*whatifNode, len(sets))
	var todo []*whatifNode
	seen := make(map[*whatifNode]bool)
	for i, ids := range sets {
		n, err := p.leaf(ids)
		if err != nil {
			out[i].Err = err
			continue
		}
		leaves[i] = n
		if !n.done && !seen[n] {
			seen[n] = true
			todo = append(todo, n)
		}
	}
	if len(todo) > 0 {
		if workers <= 0 {
			workers = par.Workers()
		}
		grain := (len(todo) + workers - 1) / workers
		par.For(len(todo), grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				start := time.Now()
				todo[i].model, todo[i].err = todo[i].state.Eval()
				todo[i].secs = time.Since(start).Seconds()
				todo[i].done = true
			}
		})
	}
	for i, n := range leaves {
		if n == nil {
			continue
		}
		out[i].Model, out[i].Err = evalNode(n)
		out[i].Seconds = n.secs
	}
	return out
}

// newWhatIfState returns a root cursor over u: the incremental WhatIfer
// capability when u has one that initializes, else the pure-replay fallback
// (an updater whose WhatIf fails — e.g. a provenance mode the incremental
// cursor does not cover — degrades rather than erroring; the results are
// identical either way). incremental reports which one it is.
func newWhatIfState(u Updater) (st WhatIfState, incremental bool) {
	if wi, ok := u.(WhatIfer); ok {
		if s, err := wi.WhatIf(); err == nil {
			return s, true
		}
	}
	return &replayWhatIf{upd: u}, false
}

// ReplayLog returns a cursor over u — captured on a training set of n rows —
// with the deletion log folded in log order, a repeated id counting at its
// first occurrence: the state a session that committed log batch by batch
// holds, and so the cursor a session rebuilds after a restore. Eval on it
// returns the bits of u.Update(log).
func ReplayLog(u Updater, n int, log []int) (WhatIfState, error) {
	_, ids, err := gbm.Removals(n, log)
	if err != nil {
		return nil, err
	}
	st, _ := newWhatIfState(u)
	if err := st.Apply(ids); err != nil {
		return nil, err
	}
	return st, nil
}

// replayWhatIf is the fallback cursor for families without the WhatIfer
// capability: it only accumulates the id log and evaluates with one pure
// Update call, so a shared prefix saves no model work (only duplicate sets
// are memoized) but the semantics are identical.
type replayWhatIf struct {
	upd Updater
	ids []int
}

// Apply checks ids are non-negative and distinct from each other and from
// the log (range against the training set is Update's check, at Eval). The
// check is O(|log|), noise beside the full Update every Eval runs.
func (s *replayWhatIf) Apply(ids []int) error {
	seen := make(map[int]struct{}, len(s.ids)+len(ids))
	for _, id := range s.ids {
		seen[id] = struct{}{}
	}
	for _, id := range ids {
		if id < 0 {
			return fmt.Errorf("priu: whatif id %d out of range", id)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("priu: whatif id %d is duplicated or already applied", id)
		}
		seen[id] = struct{}{}
	}
	s.ids = append(s.ids, ids...)
	return nil
}

func (s *replayWhatIf) Fork() WhatIfState {
	return &replayWhatIf{upd: s.upd, ids: append([]int(nil), s.ids...)}
}

func (s *replayWhatIf) Eval() (*Model, error) { return s.upd.Update(s.ids) }
