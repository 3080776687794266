package gbm

import (
	"fmt"
	"math/rand"
)

// Schedule is a precomputed sequence of mini-batches: Batches[t] holds the
// original-dataset indices of batch B(t). Sharing the schedule between the
// initial training run, the BaseL retraining run and the PrIU update is what
// makes the three directly comparable (the paper's experimental protocol).
type Schedule struct {
	n       int
	batches [][]int
}

// NewSchedule samples Iterations mini-batches of size BatchSize uniformly
// without replacement within each batch, deterministically from cfg.Seed.
func NewSchedule(n int, cfg Config) (*Schedule, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Schedule{n: n, batches: make([][]int, cfg.Iterations)}
	for t := range s.batches {
		b := make([]int, cfg.BatchSize)
		if cfg.BatchSize == n {
			// Full-batch GD: the batch is the whole dataset, in order.
			for i := range b {
				b[i] = i
			}
		} else {
			perm := rng.Perm(n)
			copy(b, perm[:cfg.BatchSize])
		}
		s.batches[t] = b
	}
	return s, nil
}

// Iterations returns the number of scheduled batches.
func (s *Schedule) Iterations() int { return len(s.batches) }

// N returns the dataset size the schedule was built for.
func (s *Schedule) N() int { return s.n }

// Batch returns the index slice of batch t (aliased, do not modify).
func (s *Schedule) Batch(t int) []int { return s.batches[t] }

// SurvivorCount returns how many members of batch t survive the removal
// mask (see Removals; nil removes nothing).
func (s *Schedule) SurvivorCount(t int, removed []bool) int {
	if removed == nil {
		return len(s.batches[t])
	}
	c := 0
	for _, i := range s.batches[t] {
		if !removed[i] {
			c++
		}
	}
	return c
}

// FootprintBytes estimates the schedule's memory use (part of the BaseL
// accounting in the Table 3 experiment).
func (s *Schedule) FootprintBytes() int64 {
	var total int64
	for _, b := range s.batches {
		total += int64(len(b)) * 8
	}
	return total
}

// Removals validates removed sample indices against [0,n) and returns the
// dense membership mask the per-batch-member hot loops index, together with
// the distinct ids in first-occurrence order (removed itself when it holds
// no duplicates, so the common case allocates only the mask). Both are nil
// when removed is empty; every consumer treats a nil mask as "nothing
// removed".
func Removals(n int, removed []int) (mask []bool, ids []int, err error) {
	if len(removed) == 0 {
		return nil, nil, nil
	}
	if err := CheckRemovals(n, removed); err != nil {
		return nil, nil, err
	}
	mask = make([]bool, n)
	ids = removed
	copied := false
	for k, r := range removed {
		if mask[r] {
			if !copied { // first duplicate: continue on a private copy
				ids, copied = append([]int(nil), removed[:k]...), true
			}
			continue
		}
		mask[r] = true
		if copied {
			ids = append(ids, r)
		}
	}
	return mask, ids, nil
}

// CheckRemovals reports the first removed index outside [0,n).
func CheckRemovals(n int, removed []int) error {
	for _, r := range removed {
		if r < 0 || r >= n {
			return fmt.Errorf("gbm: removed index %d out of range [0,%d)", r, n)
		}
	}
	return nil
}
