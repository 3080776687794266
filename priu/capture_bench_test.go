package priu

import "testing"

// BenchmarkCaptureLogisticOpt measures one logistic-opt capture at the shape
// of a perfbench commit-hot session (n=20000, m=32, B=500, τ=100) on two
// workers: schedule, linearized training, PrIU-opt stabilization and the
// eigendecomposition of C*. Not gated by benchguard.
func BenchmarkCaptureLogisticOpt(b *testing.B) {
	prev := Workers()
	SetWorkers(2)
	b.Cleanup(func() { SetWorkers(prev) })

	d, err := GenerateBinary("b-capture", 20000, 32, 1.0, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(FamilyLogisticOpt, d,
			WithEta(0.05), WithLambda(0.01), WithBatchSize(500),
			WithIterations(100), WithSeed(5)); err != nil {
			b.Fatal(err)
		}
	}
}
