// Package par provides the reusable parallelism substrate for the PrIU
// reproduction: a lazily started pool of worker goroutines and two chunked
// scheduling primitives, For (independent index ranges) and MapReduce
// (per-worker accumulators merged at the end). The dense and sparse kernels
// route their row loops through this package, so one knob — SetWorkers —
// controls the parallelism of the whole stack.
//
// Design points:
//
//   - Work is split into contiguous chunks of at least `grain` items; chunks
//     are claimed from an atomic counter, so uneven per-item cost (e.g. CSR
//     rows with skewed NNZ) load-balances automatically.
//   - Below the grain cutoff, or when Workers() == 1, calls run serially on
//     the caller's goroutine with zero scheduling overhead; kernels stay
//     deterministic and allocation-free for small operands.
//   - The submitting goroutine always participates in the work. Helper
//     workers are requested from the shared pool with a non-blocking send:
//     if the pool is saturated (e.g. a kernel invoked from inside another
//     parallel region), the caller simply does the work itself. Nested use
//     therefore degrades to serial execution instead of deadlocking.
//   - A panic in any chunk aborts the remaining chunks and is re-raised on
//     the submitting goroutine after all helpers have drained.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinWork is the per-chunk work cutoff (flops or memory touches) below which
// splitting is not worth the scheduling and wakeup overhead (~a few
// microseconds per chunk). It is static: the cutoff is not measured at
// startup, so the binaries run the chunk plans the benchmarks measure.
const MinWork = 1 << 15

// cutoff is the per-chunk work cutoff consumed by Grain. It stays MinWork
// outside tests, which move it with SetCutoffs to exercise other splits.
var cutoff atomic.Int64

func init() { cutoff.Store(MinWork) }

// Cutoffs returns the per-chunk work cutoff as a (compute, mem) pair. There
// is one cutoff, for compute- and memory-bound loops alike, so both values
// are equal.
func Cutoffs() (compute, mem int) {
	c := int(cutoff.Load())
	return c, c
}

// SetCutoffs sets the per-chunk work cutoff (tests only). It takes the pair
// Cutoffs returns, so a test can restore what it saved; the one cutoff is
// set from compute, and compute <= 0 leaves it unchanged.
func SetCutoffs(compute, mem int) {
	if compute > 0 {
		cutoff.Store(int64(compute))
	}
}

// Grain converts a per-item work estimate (flops, or elements streamed for
// memory-bound loops) into a chunk grain: every chunk carries at least the
// work cutoff.
func Grain(perItem int) int {
	if perItem < 1 {
		perItem = 1
	}
	g := int(cutoff.Load()) / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// DetGrain is Grain for deterministic reductions: MapReduceDet calls and the
// single-chunk short-circuits that must fold exactly like them. It reads the
// constant MinWork, never the cutoff, so a reduction's chunk plan — and with
// it the bits of its result — depends on the operand shape alone: SetCutoffs
// cannot change it. The cutoff only steers loops whose outputs are disjoint,
// where the split cannot change the bits.
func DetGrain(perItem int) int {
	if perItem < 1 {
		perItem = 1
	}
	g := MinWork / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// chunksPerWorker bounds how many chunks each worker claims on average;
// more chunks than this only adds counter contention.
const chunksPerWorker = 4

// Pool telemetry: dispatches counts helper closures handed to the pool,
// inline counts helper shares absorbed by the caller because the pool was
// saturated. Both are per-helper (not per-item), so the increment cost is
// negligible next to the channel send it annotates. A rising inline share is
// the queue-wait signal: parallel regions are contending for helpers.
var (
	statDispatches atomic.Int64
	statInline     atomic.Int64
)

// PoolStats is a snapshot of the helper-pool telemetry counters.
type PoolStats struct {
	Dispatches int64 // helper closures accepted by the pool
	Inline     int64 // helper shares run inline (pool saturated)
}

// Stats returns cumulative helper-pool telemetry.
func Stats() PoolStats {
	return PoolStats{Dispatches: statDispatches.Load(), Inline: statInline.Load()}
}

var workers atomic.Int64

func init() { workers.Store(int64(runtime.GOMAXPROCS(0))) }

// Workers returns the current target parallelism (including the caller's
// goroutine).
func Workers() int { return int(workers.Load()) }

// SetWorkers sets the target parallelism for subsequent For/MapReduce calls.
// n <= 0 resets to runtime.GOMAXPROCS(0). It returns the previous value so
// callers (benchmarks, tests) can restore it.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(workers.Swap(int64(n)))
}

// The helper pool: long-lived goroutines fed closures over an unbuffered
// channel. Pool size is fixed at startup; on single-core hosts a few helpers
// are still kept so tests can exercise real interleavings.
var (
	poolOnce sync.Once
	poolCh   chan func()
)

func pool() chan func() {
	poolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0) - 1
		if n < 4 {
			n = 4
		}
		poolCh = make(chan func())
		for i := 0; i < n; i++ {
			go func() {
				for f := range poolCh {
					f()
				}
			}()
		}
	})
	return poolCh
}

// plan computes the chunk size and count for n items with the requested
// minimum grain, capping the chunk count at w*chunksPerWorker.
func plan(n, grain, w int) (chunk, chunks int) {
	if grain < 1 {
		grain = 1
	}
	chunks = (n + grain - 1) / grain
	if max := w * chunksPerWorker; chunks > max {
		chunks = max
	}
	chunk = (n + chunks - 1) / chunks
	chunks = (n + chunk - 1) / chunk
	return chunk, chunks
}

// For runs fn(lo, hi) over disjoint subranges covering [0, n). grain is the
// minimum number of items per chunk; n <= grain (or Workers() == 1) runs
// fn(0, n) serially on the caller's goroutine. fn must be safe to call
// concurrently from multiple goroutines on disjoint ranges.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w <= 1 || n <= grain {
		fn(0, n)
		return
	}
	chunk, chunks := plan(n, grain, w)
	if chunks <= 1 {
		fn(0, n)
		return
	}
	var (
		next     atomic.Int64
		panicked atomic.Pointer[any]
	)
	runner := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &r)
				next.Store(int64(chunks)) // abort remaining chunks
			}
		}()
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	helpers := w - 1
	if chunks-1 < helpers {
		helpers = chunks - 1
	}
	var wg sync.WaitGroup
	p := pool()
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		select {
		case p <- func() { defer wg.Done(); runner() }:
			statDispatches.Add(1)
		default:
			// Pool saturated (nested parallel region or heavy load): the
			// caller absorbs this helper's share.
			statInline.Add(1)
			wg.Done()
		}
	}
	runner()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}

// MapReduce runs chunk over disjoint subranges covering [0, n), giving each
// participating worker its own accumulator from newAcc, and folds the
// per-worker accumulators with merge. chunk receives the worker's current
// accumulator and returns the (possibly same, possibly replaced) accumulator.
// merge may mutate and return its first argument. For n <= grain or a single
// worker the call reduces to chunk(newAcc(), 0, n) with no merge.
func MapReduce[T any](n, grain int, newAcc func() T, chunk func(acc T, lo, hi int) T, merge func(a, b T) T) T {
	if n <= 0 {
		return newAcc()
	}
	w := Workers()
	if w <= 1 || n <= grain {
		return chunk(newAcc(), 0, n)
	}
	sz, chunks := plan(n, grain, w)
	if chunks <= 1 {
		return chunk(newAcc(), 0, n)
	}
	var (
		next     atomic.Int64
		panicked atomic.Pointer[any]
		mu       sync.Mutex
		accs     []T
	)
	runner := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &r)
				next.Store(int64(chunks))
			}
		}()
		var acc T
		started := false
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				break
			}
			if !started {
				acc = newAcc()
				started = true
			}
			lo := c * sz
			hi := lo + sz
			if hi > n {
				hi = n
			}
			acc = chunk(acc, lo, hi)
		}
		if started {
			mu.Lock()
			accs = append(accs, acc)
			mu.Unlock()
		}
	}
	helpers := w - 1
	if chunks-1 < helpers {
		helpers = chunks - 1
	}
	var wg sync.WaitGroup
	p := pool()
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		select {
		case p <- func() { defer wg.Done(); runner() }:
			statDispatches.Add(1)
		default:
			statInline.Add(1)
			wg.Done()
		}
	}
	runner()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	out := accs[0]
	for _, a := range accs[1:] {
		out = merge(out, a)
	}
	return out
}

// detMaxChunks bounds how many fixed chunks (and therefore live accumulators)
// a deterministic reduction creates, independent of the worker count.
const detMaxChunks = 32

// detPlan computes the chunk size and count for a deterministic reduction:
// the plan depends only on n and grain, never on Workers(), so the reduction
// tree is identical at any pool size.
func detPlan(n, grain int) (chunk, chunks int) {
	if grain < 1 {
		grain = 1
	}
	chunks = (n + grain - 1) / grain
	if chunks > detMaxChunks {
		chunks = detMaxChunks
	}
	chunk = (n + chunks - 1) / chunks
	chunks = (n + chunk - 1) / chunk
	return chunk, chunks
}

// MapReduceDet is MapReduce with a bitwise-deterministic reduction order:
// chunk boundaries are fixed by (n, grain) alone — callers take grain from
// DetGrain, so it is a function of the shape — and the per-chunk
// accumulators are folded left-to-right in chunk-index order, so the result
// is identical at any worker count — including Workers() == 1, where the same
// chunked fold runs serially. Kernels whose output feeds persisted snapshots
// (the PR 3 bitwise contract) use this instead of MapReduce, whose merge
// order depends on chunk completion order.
//
// The cost of determinism is bounded extra merging: at most detMaxChunks
// accumulators exist regardless of pool size.
func MapReduceDet[T any](n, grain int, newAcc func() T, chunk func(acc T, lo, hi int) T, merge func(a, b T) T) T {
	if n <= 0 {
		return newAcc()
	}
	sz, chunks := detPlan(n, grain)
	if chunks <= 1 {
		return chunk(newAcc(), 0, n)
	}
	accs := make([]T, chunks)
	For(chunks, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			clo := c * sz
			chi := clo + sz
			if chi > n {
				chi = n
			}
			accs[c] = chunk(newAcc(), clo, chi)
		}
	})
	out := accs[0]
	for _, a := range accs[1:] {
		out = merge(out, a)
	}
	return out
}
