package priu

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkCommitLongLog measures one commit on a session with a long
// deletion log — the shape of a service session late in its life. A
// logistic-opt capture (n=20000, m=32) carries a 4000-row log; each
// iteration commits a fresh 4-row batch by folding it into the live cursor
// and evaluating (the service's commit path), against the alternative of
// one full-log Update of the same log. The reported "speedup" metric is the
// full-log Update time over the cursor commit time. One worker, so the gain
// comes from the O(batch) fold rather than parallelism. Gated by benchguard
// via BENCH_BASELINE.json.
func BenchmarkCommitLongLog(b *testing.B) {
	prev := Workers()
	SetWorkers(1)
	b.Cleanup(func() { SetWorkers(prev) })

	const n, m, logLen, batch = 20000, 32, 4000, 4
	d, err := GenerateBinary("b-commit", n, m, 1.0, 5)
	if err != nil {
		b.Fatal(err)
	}
	u, err := Train(FamilyLogisticOpt, d,
		WithEta(0.05), WithLambda(0.01), WithBatchSize(500),
		WithIterations(100), WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	perm := rand.New(rand.NewSource(9)).Perm(n)
	log := perm[:logLen]
	live, err := ReplayLog(u, n, log)
	if err != nil {
		b.Fatal(err)
	}

	// Baseline: the full-log Update a commit of the next batch would cost
	// without the cursor.
	full := perm[:logLen+batch]
	const reps = 3
	start := time.Now()
	for r := 0; r < reps; r++ {
		if _, err := u.Update(full); err != nil {
			b.Fatal(err)
		}
	}
	baselineNs := time.Since(start).Nanoseconds() / reps

	// Fresh rows for every commit; past the end of the permutation the log
	// starts over from the 4000-row cursor (untimed).
	next := logLen
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next+batch > n {
			b.StopTimer()
			if live, err = ReplayLog(u, n, log); err != nil {
				b.Fatal(err)
			}
			next = logLen
			b.StartTimer()
		}
		if err := live.Apply(perm[next : next+batch]); err != nil {
			b.Fatal(err)
		}
		next += batch
		if _, err := live.Eval(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := b.Elapsed().Nanoseconds() / int64(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(baselineNs)/float64(perOp), "speedup")
	}
}
