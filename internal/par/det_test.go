package par

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMapReduceDetSum checks the deterministic reduction computes the right
// value across sizes straddling the chunk cap.
func TestMapReduceDetSum(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000, 100000} {
		got := MapReduceDet(n, 8,
			func() int { return 0 },
			func(acc, lo, hi int) int {
				for i := lo; i < hi; i++ {
					acc += i
				}
				return acc
			},
			func(a, b int) int { return a + b })
		want := n * (n - 1) / 2
		if got != want {
			t.Errorf("MapReduceDet sum n=%d = %d, want %d", n, got, want)
		}
	}
}

// TestMapReduceDetBitwiseAcrossWorkers is the core contract: a float fold
// whose result depends on summation order must come out bitwise-identical at
// any worker count, because the chunk plan and merge order are fixed by
// (n, grain) alone.
func TestMapReduceDetBitwiseAcrossWorkers(t *testing.T) {
	xs := make([]float64, 9973)
	v := 1.0
	for i := range xs {
		v = v*1.0000001 + 1e-7
		xs[i] = v * 1e-3
	}
	run := func() float64 {
		return MapReduceDet(len(xs), 100,
			func() float64 { return 0 },
			func(acc float64, lo, hi int) float64 {
				for i := lo; i < hi; i++ {
					acc += xs[i]
				}
				return acc
			},
			func(a, b float64) float64 { return a + b })
	}
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	base := run()
	for _, w := range []int{2, 3, 8, 16} {
		SetWorkers(w)
		for rep := 0; rep < 10; rep++ {
			if got := run(); got != base {
				t.Fatalf("workers=%d rep=%d: %x differs from workers=1 result %x", w, rep, got, base)
			}
		}
	}
}

func TestDetPlanIndependentOfWorkers(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	c1, n1 := detPlan(100000, 64)
	SetWorkers(16)
	c2, n2 := detPlan(100000, 64)
	if c1 != c2 || n1 != n2 {
		t.Fatalf("detPlan changed with worker count: (%d,%d) vs (%d,%d)", c1, n1, c2, n2)
	}
	if n1 > detMaxChunks {
		t.Fatalf("detPlan produced %d chunks, cap is %d", n1, detMaxChunks)
	}
	// Chunks must cover [0, n) exactly.
	if c1*n1 < 100000 || c1*(n1-1) >= 100000 {
		t.Fatalf("detPlan chunk=%d chunks=%d does not cover n=100000 tightly", c1, n1)
	}
}

// TestDetGrainIgnoresCutoffs: reduction plans come from the constant
// MinWork, so no SetCutoffs call can move a reduction's chunk boundaries.
func TestDetGrainIgnoresCutoffs(t *testing.T) {
	c0, m0 := Cutoffs()
	defer SetCutoffs(c0, m0)
	for _, perItem := range []int{0, 1, 54 * 54, MinWork, 4 * MinWork} {
		want := DetGrain(perItem)
		for _, cut := range []int{64, 1 << 13, 1 << 21} {
			SetCutoffs(cut, cut)
			if got := DetGrain(perItem); got != want {
				t.Fatalf("DetGrain(%d) = %d under cutoff %d, want %d", perItem, got, cut, want)
			}
		}
	}
	if got := DetGrain(54 * 54); got != 11 {
		t.Fatalf("DetGrain(54²) = %d, want MinWork/2916 = 11", got)
	}
}

// TestCutoffsIgnoreEnvironment runs a child process with the retired
// PRIU_PAR_MINWORK variable set and checks the cutoffs still come up at the
// static MinWork: no environment variable moves them.
func TestCutoffsIgnoreEnvironment(t *testing.T) {
	if os.Getenv("PAR_TEST_CHILD") == "1" {
		if c, m := Cutoffs(); c != MinWork || m != MinWork {
			t.Fatalf("Cutoffs() = (%d,%d) under PRIU_PAR_MINWORK=777, want (%d,%d)", c, m, MinWork, MinWork)
		}
		return
	}
	if testing.Short() {
		t.Skip("short mode: skipping subprocess test")
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCutoffsIgnoreEnvironment$", "-test.v")
	cmd.Env = append(os.Environ(), "PAR_TEST_CHILD=1", "PRIU_PAR_MINWORK=777")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "PASS") {
		t.Fatalf("child failed: %v\n%s", err, out)
	}
}
