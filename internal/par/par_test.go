package par

import (
	"sync/atomic"
	"testing"
)

// withWorkers runs fn with the pool temporarily forced to n workers.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	fn()
}

func TestForEmptyAndNegative(t *testing.T) {
	withWorkers(t, 4, func() {
		called := false
		For(0, 1, func(lo, hi int) { called = true })
		For(-5, 1, func(lo, hi int) { called = true })
		if called {
			t.Fatal("fn called for empty range")
		}
	})
}

func TestForBelowCutoffRunsSerial(t *testing.T) {
	withWorkers(t, 4, func() {
		var calls int32
		For(10, 100, func(lo, hi int) {
			atomic.AddInt32(&calls, 1)
			if lo != 0 || hi != 10 {
				t.Errorf("serial fallback got [%d,%d), want [0,10)", lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("calls = %d, want 1 (single serial chunk)", calls)
		}
	})
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 9} {
		withWorkers(t, w, func() {
			const n = 100001
			counts := make([]int32, n)
			For(n, 64, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", w, i, c)
				}
			}
		})
	}
}

func TestForPanicPropagates(t *testing.T) {
	withWorkers(t, 4, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic did not propagate")
			}
			if r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		For(10000, 1, func(lo, hi int) {
			if lo >= 5000 {
				panic("boom")
			}
		})
	})
}

func TestForPanicOnSerialPath(t *testing.T) {
	withWorkers(t, 1, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("serial panic did not propagate")
			}
		}()
		For(10, 100, func(lo, hi int) { panic("serial boom") })
	})
}

func TestForNested(t *testing.T) {
	withWorkers(t, 4, func() {
		const outer, inner = 64, 257
		var total atomic.Int64
		For(outer, 1, func(olo, ohi int) {
			for o := olo; o < ohi; o++ {
				For(inner, 16, func(lo, hi int) {
					total.Add(int64(hi - lo))
				})
			}
		})
		if got := total.Load(); got != outer*inner {
			t.Fatalf("nested total = %d, want %d", got, outer*inner)
		}
	})
}

// The MapReduce tests drive MapReduceDet, the package's one reduction, at
// several pool sizes.
func TestMapReduceSum(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			const n = 123457
			got := MapReduceDet(n, 100,
				func() int64 { return 0 },
				func(acc int64, lo, hi int) int64 {
					for i := lo; i < hi; i++ {
						acc += int64(i)
					}
					return acc
				},
				func(a, b int64) int64 { return a + b })
			want := int64(n) * int64(n-1) / 2
			if got != want {
				t.Fatalf("workers=%d: sum = %d, want %d", w, got, want)
			}
		})
	}
}

func TestMapReduceEmpty(t *testing.T) {
	withWorkers(t, 4, func() {
		got := MapReduceDet(0, 1,
			func() int { return 42 },
			func(acc, lo, hi int) int { t.Fatal("chunk called"); return acc },
			func(a, b int) int { return a + b })
		if got != 42 {
			t.Fatalf("empty MapReduceDet = %d, want identity 42", got)
		}
	})
}

func TestMapReducePanicPropagates(t *testing.T) {
	withWorkers(t, 4, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		MapReduceDet(10000, 1,
			func() int { return 0 },
			func(acc, lo, hi int) int { panic("mr boom") },
			func(a, b int) int { return a + b })
	})
}

func TestSetWorkersClampsAndRestores(t *testing.T) {
	prev := SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	if back := SetWorkers(0); back != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", back)
	}
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after reset, want >= 1", Workers())
	}
	SetWorkers(prev)
}
