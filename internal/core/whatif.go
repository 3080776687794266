package core

import (
	"fmt"

	"repro/internal/gbm"
	"repro/internal/mat"
)

// What-if evaluation: forkable cursors over a PrIU-opt capture.
//
// A WhatIfState accumulates a removal log incrementally — Apply folds more
// removed rows into the state's partial sums — and Eval materializes the
// updated model for the log applied so far, without touching the underlying
// updater. Fork copies the partial sums, so a planner can apply a shared
// prefix of several candidate sets once and branch: k overlapping sets cost
// the union's row work instead of k full replays. A live session keeps one
// cursor across commits, so a commit costs Apply(batch) + Eval instead of a
// full-log Update.
//
// The logistic and multinomial cursors keep their PrIU phase-1 removals in
// schedule coordinates (schedRemovals): Apply sets one bit per (iteration,
// batch position) the row occupies, found through the capture's occurrence
// index, and marks those iterations stale. The phase-1 roll at Eval reads
// the removed rows from the bits and the cached ΔD_t = Σ dᵢxᵢ — the
// w-independent half of each iteration's correction — re-summing ΔD only
// for stale iterations, so a commit recomputes only the w-dependent ΔC·w
// half for the iterations its batch did not touch. Eval therefore writes
// the cursor's own cached state; forks never share it.
//
// Bitwise contract: log order is the canonical fold order. For every applied
// log L (the concatenation of the Apply batches; ids distinct across all
// calls, in any order), Eval() returns the exact bits Update(L) would. This
// holds because Update folds removed rows in the order given and the
// incremental accumulators replay the same floating-point operation
// sequence: rows fold into N'/D*' in log order, each eigenvalue's Gram
// correction sums dot² over rows in that same order starting from zero, and
// the per-eigenvector dot uses the identical operand order as
// Dense.MulVecInto (row element × eigenvector element, ascending
// coordinates). The phase-1 roll depends on the removal set alone, and a
// cached ΔD_t is re-summed in batch order from zero, as Update sums it. Both
// paths then run the same per-family tail (eigenTail / finish).

// WhatIfState is a forkable what-if cursor. Apply folds additional removed
// row ids into the state (ids must be distinct across all Apply calls, in
// any order; the concatenation is the fold order); Fork returns an
// independent copy sharing only immutable captured state; Eval returns the
// model the updater's Update of the applied log would produce. A rejected
// Apply leaves the state unchanged. A state is not safe for concurrent use,
// and that includes Eval, which refreshes the state's cached sums: distinct
// states (a state and its forks) may be evaluated concurrently.
type WhatIfState interface {
	Apply(ids []int) error
	Fork() WhatIfState
	Eval() (*gbm.Model, error)
}

// removalLog is a cursor's applied ids in log order plus what Apply needs to
// keep them distinct: hi, the largest applied id, admits the strictly
// ascending appends of a what-if planner with no membership lookup, and
// mask — owned, never shared with forks, built on the first out-of-order
// Apply — answers membership for a live session's arbitrary-order batches.
// Leaving the mask out of Fork keeps forking O(|log|), not O(n).
type removalLog struct {
	n    int
	ids  []int
	hi   int
	mask []bool
}

func newRemovalLog(n int) removalLog { return removalLog{n: n, hi: -1} }

// extend validates ids — in range, distinct from each other and from every
// applied id — and appends them. Validation completes before the caller
// folds anything, and a rejected batch leaves the log unchanged.
func (l *removalLog) extend(ids []int) error {
	if err := gbm.CheckRemovals(l.n, ids); err != nil {
		return err
	}
	// Strictly ascending past hi exactly when every id tops the running max.
	ascending, hi := true, l.hi
	for _, id := range ids {
		if id > hi {
			hi = id
		} else {
			ascending = false
		}
	}
	if !ascending && l.mask == nil {
		l.mask = make([]bool, l.n)
		for _, id := range l.ids {
			l.mask[id] = true
		}
	}
	if l.mask != nil {
		for k, id := range ids {
			if l.mask[id] {
				for _, u := range ids[:k] {
					l.mask[u] = false
				}
				return fmt.Errorf("core: whatif id %d is duplicated or already applied", id)
			}
			l.mask[id] = true
		}
	}
	l.hi = hi
	l.ids = append(l.ids, ids...)
	return nil
}

func (l *removalLog) fork() removalLog {
	return removalLog{n: l.n, ids: append([]int(nil), l.ids...), hi: l.hi}
}

// linearWhatIf incrementally maintains N' = N − Σ yᵢxᵢ and the per-eigenvalue
// Gram corrections ‖ΔX·qⱼ‖² for LinearOpt (Sec 5.2).
type linearWhatIf struct {
	lo *LinearOpt
	// qt is Qᵀ (rows are eigenvectors), shared read-only across forks so the
	// per-row dot products run over contiguous memory.
	qt     *mat.Dense
	log    removalLog
	nPrime []float64
	sSum   []float64
	// dots holds Qᵀ·xᵢ for the row being applied.
	dots []float64
}

// WhatIf returns a forkable what-if cursor over the capture.
func (lo *LinearOpt) WhatIf() (WhatIfState, error) {
	if lo.eig == nil {
		return nil, ErrNoCapture
	}
	return &linearWhatIf{
		lo:     lo,
		qt:     lo.eig.Q.T(),
		log:    newRemovalLog(lo.data.N()),
		nPrime: mat.CloneVec(lo.n),
		sSum:   make([]float64, lo.data.M()),
		dots:   make([]float64, lo.data.M()),
	}, nil
}

func (s *linearWhatIf) Apply(ids []int) error {
	if err := s.log.extend(ids); err != nil {
		return err
	}
	for _, id := range ids {
		xi := s.lo.data.X.Row(id)
		mat.Axpy(s.nPrime, -s.lo.data.Y[id], xi)
		s.qt.MulVecInto(s.dots, xi)
		for j, d := range s.dots {
			s.sSum[j] += d * d
		}
	}
	return nil
}

func (s *linearWhatIf) Fork() WhatIfState {
	return &linearWhatIf{
		lo:     s.lo,
		qt:     s.qt,
		log:    s.log.fork(),
		nPrime: mat.CloneVec(s.nPrime),
		sSum:   mat.CloneVec(s.sSum),
		dots:   make([]float64, len(s.dots)),
	}
}

func (s *linearWhatIf) Eval() (*gbm.Model, error) {
	dn := len(s.log.ids)
	m := s.lo.data.M()
	if dn == 0 || dn >= m {
		// Regimes the incremental Gram accumulation does not model: the
		// empty set clones the eigenvalues and Δn ≥ m switches to the dense
		// congruence — both served exactly by the (pure) batch path.
		return s.lo.Update(s.log.ids)
	}
	nEff, err := survivors(s.lo.data.N(), dn)
	if err != nil {
		return nil, err
	}
	cPrime := make([]float64, m)
	for i := range cPrime {
		cPrime[i] = s.lo.eig.Values[i] - s.sSum[i]
	}
	return s.lo.eigenTail(cPrime, s.nPrime, nEff), nil
}

// logisticWhatIf incrementally maintains D*' and the Gram corrections
// ‖Z·qⱼ‖² (rows √(−aᵢ,*)·xᵢ) for LogisticOpt (Sec 5.4), and the phase-1
// removals in schedule coordinates with each iteration's cached ΔD. The PrIU
// phase-1 roll to ts depends on w and runs at Eval, re-summing only the ΔD
// of iterations an Apply touched since the last Eval.
type logisticWhatIf struct {
	lo      *LogisticOpt
	qt      *mat.Dense
	log     removalLog
	rm      *schedRemovals
	dStar   []float64
	sSum    []float64
	scratch []float64
}

// WhatIf returns a forkable what-if cursor over the capture.
func (lo *LogisticOpt) WhatIf() (WhatIfState, error) {
	if lo.eig == nil {
		return nil, ErrNoCapture
	}
	d := lo.prov.data
	return &logisticWhatIf{
		lo:      lo,
		qt:      lo.eig.Q.T(),
		log:     newRemovalLog(d.N()),
		rm:      lo.phase1Removals(true),
		dStar:   mat.CloneVec(lo.dStar),
		sSum:    make([]float64, d.M()),
		scratch: make([]float64, 2*d.M()),
	}, nil
}

func (s *logisticWhatIf) Apply(ids []int) error {
	if err := s.log.extend(ids); err != nil {
		return err
	}
	d := s.lo.prov.data
	for _, id := range ids {
		xi := d.X.Row(id)
		sc := sqrtAbs(s.lo.aStar[id])
		// scratch holds the scaled row, then Qᵀ times it.
		row, dots := s.scratch[:len(xi)], s.scratch[len(xi):]
		for j, v := range xi {
			row[j] = sc * v
		}
		s.qt.MulVecInto(dots, row)
		for j, dv := range dots {
			s.sSum[j] += dv * dv
		}
		mat.Axpy(s.dStar, -s.lo.bStar[id]*d.Y[id], xi)
	}
	s.rm.add(&s.lo.occ, ids)
	return nil
}

func (s *logisticWhatIf) Fork() WhatIfState {
	return &logisticWhatIf{
		lo:      s.lo,
		qt:      s.qt,
		log:     s.log.fork(),
		rm:      s.rm.fork(),
		dStar:   mat.CloneVec(s.dStar),
		sSum:    mat.CloneVec(s.sSum),
		scratch: make([]float64, len(s.scratch)),
	}
}

func (s *logisticWhatIf) Eval() (*gbm.Model, error) {
	dn := len(s.log.ids)
	if dn == 0 {
		return s.lo.Update(nil)
	}
	nEff, err := survivors(s.log.n, dn)
	if err != nil {
		return nil, err
	}
	cPrime := make([]float64, len(s.sSum))
	for i := range cPrime {
		cPrime[i] = s.lo.eig.Values[i] + s.sSum[i]
	}
	return s.lo.finish(s.rm, cPrime, s.dStar, nEff), nil
}

// multinomialWhatIf is the per-class generalization: D*ₖ' and the class-k
// Gram corrections accumulate per applied row, the phase-1 removals and
// per-class ΔD as for logistic, and the per-class eigen recurrences run at
// Eval.
type multinomialWhatIf struct {
	mo      *MultinomialOpt
	qts     []*mat.Dense
	log     removalLog
	rm      *schedRemovals
	dStar   [][]float64
	sSum    [][]float64
	scratch []float64
}

// WhatIf returns a forkable what-if cursor over the capture.
func (mo *MultinomialOpt) WhatIf() (WhatIfState, error) {
	if mo.eigs == nil {
		return nil, ErrNoCapture
	}
	d, q := mo.prov.data, mo.prov.q
	s := &multinomialWhatIf{
		mo:      mo,
		qts:     make([]*mat.Dense, q),
		log:     newRemovalLog(d.N()),
		rm:      mo.phase1Removals(true),
		dStar:   make([][]float64, q),
		sSum:    make([][]float64, q),
		scratch: make([]float64, 2*d.M()),
	}
	for k := 0; k < q; k++ {
		s.qts[k] = mo.eigs[k].Q.T()
		s.dStar[k] = mat.CloneVec(mo.dStar[k])
		s.sSum[k] = make([]float64, d.M())
	}
	return s, nil
}

func (s *multinomialWhatIf) Apply(ids []int) error {
	if err := s.log.extend(ids); err != nil {
		return err
	}
	d := s.mo.prov.data
	n := d.N()
	for _, id := range ids {
		xi := d.X.Row(id)
		for k := range s.qts {
			sc := sqrtAbs(s.mo.aStar[k*n+id])
			row, dots := s.scratch[:len(xi)], s.scratch[len(xi):]
			for j, v := range xi {
				row[j] = sc * v
			}
			s.qts[k].MulVecInto(dots, row)
			for j, dv := range dots {
				s.sSum[k][j] += dv * dv
			}
			mat.Axpy(s.dStar[k], -s.mo.cStar[k*n+id], xi)
		}
	}
	s.rm.add(&s.mo.occ, ids)
	return nil
}

func (s *multinomialWhatIf) Fork() WhatIfState {
	f := &multinomialWhatIf{
		mo:      s.mo,
		qts:     s.qts,
		log:     s.log.fork(),
		rm:      s.rm.fork(),
		dStar:   make([][]float64, len(s.dStar)),
		sSum:    make([][]float64, len(s.sSum)),
		scratch: make([]float64, len(s.scratch)),
	}
	for k := range s.dStar {
		f.dStar[k] = mat.CloneVec(s.dStar[k])
		f.sSum[k] = mat.CloneVec(s.sSum[k])
	}
	return f
}

func (s *multinomialWhatIf) Eval() (*gbm.Model, error) {
	dn := len(s.log.ids)
	if dn == 0 {
		return s.mo.Update(nil)
	}
	nEff, err := survivors(s.log.n, dn)
	if err != nil {
		return nil, err
	}
	cPrimes := make([][]float64, len(s.sSum))
	for k, sum := range s.sSum {
		cPrimes[k] = make([]float64, len(sum))
		for i := range sum {
			cPrimes[k][i] = s.mo.eigs[k].Values[i] - sum[i]
		}
	}
	return s.mo.finish(s.rm, cPrimes, s.dStar, nEff), nil
}
