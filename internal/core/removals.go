package core

import (
	"math/bits"

	"repro/internal/gbm"
)

// schedRemovals is a removal set in schedule coordinates, the form every
// PrIU phase-1 roll reads: bit k of iteration t's words marks position k of
// sched.Batch(t) as removed, so the roll lists an iteration's removed members
// in batch order with TrailingZeros64 instead of testing every member
// against an n-sized mask. A what-if cursor also caches ΔD_t = Σ dₖ·xᵢ, the
// w-independent half of each iteration's removed-row correction, per
// iteration (and class), refreshed lazily: setting a bit marks its iteration
// stale, and the roll's fused kernel re-sums a stale ΔD_t from zero in batch
// order — the bits of an uncached sum — alongside ΔC·w. A one-shot Update
// keeps no cache and sums each ΔD_t into scratch in that same pass.
type schedRemovals struct {
	iters  int
	stride int // words per iteration: ⌈largest batch / 64⌉
	// pos holds iteration t's batch positions at pos[t*stride:(t+1)*stride];
	// stale holds one bit per iteration. Both slice words.
	words, pos, stale []uint64
	// dD caches ΔD_t for class k at dD[(k*iters+t)*m:][:m]; nil when the
	// set keeps no cache.
	dD []float64
	m  int
}

// batchStride returns the words per iteration that cover the first iters
// batches of sched.
func batchStride(sched *gbm.Schedule, iters int) int {
	b := 0
	for t := 0; t < iters; t++ {
		b = max(b, len(sched.Batch(t)))
	}
	return (b + 63) / 64
}

// batchListBytes returns the storage of the first iters batch lists of
// sched — the ones a capture's caches cover, so a capture that shares a
// longer schedule and its loaded copy report the same footprint.
func batchListBytes(sched *gbm.Schedule, iters int) int64 {
	var total int64
	for t := 0; t < iters; t++ {
		total += int64(len(sched.Batch(t))) * 8
	}
	return total
}

// newSchedRemovals returns an empty set over iters iterations of stride
// words each; with cached, it keeps ΔD for q classes of m coordinates.
func newSchedRemovals(iters, stride, q, m int, cached bool) *schedRemovals {
	r := &schedRemovals{iters: iters, stride: stride, m: m}
	r.setWords(make([]uint64, iters*stride+(iters+63)/64))
	if cached {
		r.dD = make([]float64, q*iters*m)
	}
	return r
}

func (r *schedRemovals) setWords(w []uint64) {
	n := r.iters * r.stride
	r.words, r.pos, r.stale = w, w[:n:n], w[n:]
}

// fork returns an independent copy: one allocation for the bits, one for
// the ΔD cache.
func (r *schedRemovals) fork() *schedRemovals {
	f := *r
	f.setWords(append([]uint64(nil), r.words...))
	if r.dD != nil {
		f.dD = append([]float64(nil), r.dD...)
	}
	return &f
}

// add marks every schedule coordinate c = t·stride·64 + k of the given rows
// removed and its iteration t stale.
func (r *schedRemovals) add(x *occurrenceIndex, ids []int) {
	for _, i := range ids {
		for _, c := range x.of(i) {
			r.pos[c>>6] |= 1 << (c & 63)
			t := int(c>>6) / r.stride
			r.stale[t>>6] |= 1 << (t & 63)
		}
	}
}

// removalsFromMask returns the uncached set of the members of the first
// iters batches of sched under mask (nil removes nothing): a one-shot
// Update's fill. The scan reads each batch once and builds each word in a
// register, last member first, so it neither branches on the mask nor
// shifts by a variable count.
func removalsFromMask(sched *gbm.Schedule, iters int, mask []bool) *schedRemovals {
	r := newSchedRemovals(iters, batchStride(sched, iters), 0, 0, false)
	if mask == nil {
		return r
	}
	for t := 0; t < iters; t++ {
		batch := sched.Batch(t)
		words := r.pos[t*r.stride : (t+1)*r.stride]
		for j := range words {
			chunk := batch[j<<6 : min(len(batch), (j+1)<<6)]
			var w uint64
			for k := len(chunk) - 1; k >= 0; k-- {
				var b uint64
				if mask[chunk[k]] {
					b = 1
				}
				w = w<<1 | b
			}
			words[j] = w
		}
	}
	return r
}

// positions appends iteration t's removed batch positions, ascending, to
// dst.
func (r *schedRemovals) positions(dst []int, t int) []int {
	for j, w := range r.pos[t*r.stride : (t+1)*r.stride] {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, j<<6+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// removedCount returns the removed positions in iterations [t0, tEnd), in
// total and in the iteration with the most: the capacities positions needs.
func (r *schedRemovals) removedCount(t0, tEnd int) (total, most int) {
	for t := t0; t < tEnd; t++ {
		c := 0
		for _, w := range r.pos[t*r.stride : (t+1)*r.stride] {
			c += bits.OnesCount64(w)
		}
		total, most = total+c, max(most, c)
	}
	return total, most
}

// deltaD returns where iteration t's ΔD for class k lives and, as sumTo,
// the slice foldRemoved must sum it into now: a cached slot, re-summed only
// when iteration t is stale (sumTo is nil otherwise), or — for a set without
// a cache — scratch, summed every time. The caller clears the stale bits
// once every class has read them.
func (r *schedRemovals) deltaD(scratch []float64, t, k int) (dD, sumTo []float64) {
	if r.dD == nil {
		return scratch, scratch
	}
	off := (k*r.iters + t) * r.m
	dD = r.dD[off : off+r.m]
	if r.stale[t>>6]&(1<<(t&63)) != 0 {
		sumTo = dD
	}
	return dD, sumTo
}

// clearStale marks every iteration's cached ΔD current.
func (r *schedRemovals) clearStale() { clear(r.stale) }

// occurrenceIndex maps each row to its schedule coordinates t·stride·64 + k
// in the first iters batches — where a PrIU-opt cursor sets bits when the row
// is removed — packed as int32: row i's coordinates are
// coords[start[i]:start[i+1]], ascending. It is derived from the schedule,
// built when capture and the loaders finish, and never persisted.
type occurrenceIndex struct {
	stride int
	start  []int32
	coords []int32
}

// newOccurrenceIndex indexes the first iters batches of sched over n rows.
func newOccurrenceIndex(sched *gbm.Schedule, iters, n int) occurrenceIndex {
	x := occurrenceIndex{stride: batchStride(sched, iters), start: make([]int32, n+1)}
	for t := 0; t < iters; t++ {
		for _, i := range sched.Batch(t) {
			x.start[i+1]++
		}
	}
	for i := 0; i < n; i++ {
		x.start[i+1] += x.start[i]
	}
	x.coords = make([]int32, x.start[n])
	next := append([]int32(nil), x.start[:n]...)
	for t := 0; t < iters; t++ {
		for k, i := range sched.Batch(t) {
			x.coords[next[i]] = int32(t*x.stride*64 + k)
			next[i]++
		}
	}
	return x
}

// of returns row i's schedule coordinates.
func (x *occurrenceIndex) of(i int) []int32 { return x.coords[x.start[i]:x.start[i+1]] }

// footprint returns the index's storage in bytes.
func (x *occurrenceIndex) footprint() int64 {
	return int64(len(x.start))*4 + int64(len(x.coords))*4
}
