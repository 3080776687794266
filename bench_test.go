package repro

// Benchmark harness: one testing.B family per table and figure of the
// paper's evaluation section (Sec 6). Workloads are prepared once per
// process (offline capture is excluded from timings, matching the paper's
// protocol) and each benchmark times one update operation. Run with:
//
//	go test -bench=. -benchmem
//
// Speed-ups vs BaseL appear as the ratio of the corresponding benchmark
// times; cmd/priubench prints them directly.

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/priu/bench"
)

// benchScale shrinks the harness workloads so the full suite completes in
// minutes; EXPERIMENTS.md records results from the same configurations.
const benchScale = 0.35

var (
	preparedMu sync.Mutex
	prepared   = map[string]*bench.Prepared{}
)

func getPrepared(b *testing.B, id string) *bench.Prepared {
	b.Helper()
	preparedMu.Lock()
	defer preparedMu.Unlock()
	if p, ok := prepared[id]; ok {
		return p
	}
	w, err := bench.WorkloadByID(id)
	if err != nil {
		b.Fatal(err)
	}
	p, err := bench.Prepare(w.Scale(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	prepared[id] = p
	return p
}

// benchUpdate times one method at one deletion rate on one workload.
func benchUpdate(b *testing.B, id string, m bench.Method, rate float64) {
	p := getPrepared(b, id)
	removed := p.PickRemoval(rate, 12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.RunUpdate(m, removed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(removed)), "removed")
}

// sweepMethods runs sub-benchmarks for every applicable method at the given
// deletion rates — the shape of one figure panel.
func sweepMethods(b *testing.B, id string, rates []float64) {
	p := getPrepared(b, id)
	for _, rate := range rates {
		for _, m := range p.Methods() {
			b.Run(fmt.Sprintf("rate=%g/%s", rate, m), func(b *testing.B) {
				benchUpdate(b, id, m, rate)
			})
		}
	}
}

var figRates = []float64{0.001, 0.01, 0.1}

// Figure 1: update time for linear regression (SGEMM original/extended).
func BenchmarkFig1aSGEMMOriginal(b *testing.B) { sweepMethods(b, "sgemm-original", figRates) }
func BenchmarkFig1bSGEMMExtended(b *testing.B) { sweepMethods(b, "sgemm-extended", figRates) }

// Figure 2: update time for (multinomial) logistic regression over Cov with
// varying batch size and iteration count.
func BenchmarkFig2aCovSmall(b *testing.B)  { sweepMethods(b, "cov-small", figRates) }
func BenchmarkFig2bCovLarge1(b *testing.B) { sweepMethods(b, "cov-large1", figRates) }
func BenchmarkFig2cCovLarge2(b *testing.B) { sweepMethods(b, "cov-large2", figRates) }

// Figure 3: update time across feature-space sizes (Heartbeat vs HIGGS) and
// the extreme cases (sparse RCV1, large-m cifar10).
func BenchmarkFig3aHeartbeat(b *testing.B) { sweepMethods(b, "heartbeat", figRates) }
func BenchmarkFig3bHIGGS(b *testing.B)     { sweepMethods(b, "higgs", figRates) }
func BenchmarkFig3cRCV1(b *testing.B) {
	for _, m := range []bench.Method{bench.MethodBaseL, bench.MethodPrIU} {
		b.Run(string(m), func(b *testing.B) { benchUpdate(b, "rcv1", m, 0.001) })
	}
}

// BenchmarkSparseLogisticUpdate is the layer benchmark of the sparse
// scaled-weight SGD step (gbm.SparseSGD) on the rcv1 shape the repository
// benchmark runs (scale 0.5: n=1250, m=47236, 60 non-zeros a row, B=250,
// τ=150): PrIU's coefficient replay and BaseL retraining, 1% of rows
// removed, with ns/op, B/op and allocs/op. It reports no speedup: at a
// PrIU/BaseL ratio near 1 a floor would gate noise.
func BenchmarkSparseLogisticUpdate(b *testing.B) {
	w, err := bench.WorkloadByID("rcv1")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bench.Prepare(w.Scale(0.5))
	if err != nil {
		b.Fatal(err)
	}
	removed := p.PickRemoval(0.01, 12345)
	for _, m := range []bench.Method{bench.MethodPrIU, bench.MethodBaseL} {
		b.Run(string(m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.RunUpdate(m, removed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig3cCifar10(b *testing.B) {
	for _, m := range []bench.Method{bench.MethodBaseL, bench.MethodPrIU} {
		b.Run(string(m), func(b *testing.B) { benchUpdate(b, "cifar10", m, 0.001) })
	}
}

// Figure 4: repetitive removal of 10 different subsets (extended datasets).
// One benchmark iteration performs all ten updates, so the BaseL/PrIU-opt
// time ratio is the figure's speed-up.
func BenchmarkFig4Repetitive(b *testing.B) {
	for _, id := range []string{"cov-extended", "higgs-extended", "heartbeat-extended"} {
		p := getPrepared(b, id)
		for _, m := range []bench.Method{bench.MethodBaseL, bench.MethodPrIUOpt} {
			b.Run(fmt.Sprintf("%s/%s", id, m), func(b *testing.B) {
				subsets := make([][]int, 10)
				for s := range subsets {
					subsets[s] = p.PickRemoval(0.001, int64(100+s))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, removed := range subsets {
						if _, _, err := p.RunUpdate(m, removed); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// Table 1: dataset characteristics — benches the synthetic generators.
func BenchmarkTable1Datasets(b *testing.B) {
	for _, id := range []string{"sgemm-original", "higgs", "cov-small", "rcv1"} {
		b.Run(id, func(b *testing.B) {
			w, err := bench.WorkloadByID(id)
			if err != nil {
				b.Fatal(err)
			}
			w = w.Scale(0.1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.Generate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Table 3: memory consumption — reports provenance-cache MB per method.
func BenchmarkTable3Memory(b *testing.B) {
	for _, id := range []string{"sgemm-original", "higgs", "cov-small"} {
		p := getPrepared(b, id)
		for _, m := range []bench.Method{bench.MethodBaseL, bench.MethodPrIU, bench.MethodPrIUOpt} {
			b.Run(fmt.Sprintf("%s/%s", id, m), func(b *testing.B) {
				var bytes int64
				for i := 0; i < b.N; i++ {
					bytes = p.FootprintBytes(m)
				}
				b.ReportMetric(float64(bytes)/(1<<20), "MB")
			})
		}
	}
}

// Table 4: accuracy/distance/similarity at deletion rate 0.2 — runs the
// comparison pipeline (update + evaluate + compare) end to end.
func BenchmarkTable4Accuracy(b *testing.B) {
	for _, id := range []string{"higgs", "sgemm-original"} {
		p := getPrepared(b, id)
		removed := p.PickRemoval(0.2, 777)
		base, _, err := p.RunUpdate(bench.MethodBaseL, removed)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []bench.Method{bench.MethodPrIUOpt, bench.MethodINFL} {
			b.Run(fmt.Sprintf("%s/%s", id, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					upd, _, err := p.RunUpdate(m, removed)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := p.Evaluate(upd); err != nil {
						b.Fatal(err)
					}
					_ = base
				}
			})
		}
	}
}

// Ablation (assoc): the matrix-vector associativity trick of Sec 5.1 —
// applying the removed-samples term as ΔXᵀ(ΔX·w) (two mat-vecs, O(ΔB·m))
// instead of forming ΔXᵀΔX and multiplying (O(ΔB·m² + m²)).
func BenchmarkAblationAssoc(b *testing.B) {
	const m, dB = 256, 32
	rng := benchRand(1)
	dx := mat.NewDense(dB, m)
	for i := range dx.Data() {
		dx.Data()[i] = rng.NormFloat64()
	}
	w := make([]float64, m)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	b.Run("assoc-two-matvecs", func(b *testing.B) {
		tmp := make([]float64, dB)
		out := make([]float64, m)
		for i := 0; i < b.N; i++ {
			dx.MulVecInto(tmp, w)
			dx.MulVecTInto(out, tmp)
		}
	})
	b.Run("explicit-gram", func(b *testing.B) {
		out := make([]float64, m)
		for i := 0; i < b.N; i++ {
			g := dx.Gram()
			g.MulVecInto(out, w)
		}
	})
}

func benchRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Ablation: the experiment runners themselves (SVD rank / ts / Δx sweeps)
// end to end at small scale.
func BenchmarkAblations(b *testing.B) {
	for _, id := range []string{"ablation-svdrank", "ablation-ts", "ablation-dx"} {
		b.Run(id, func(b *testing.B) {
			e := bench.Registry[id]
			for i := 0; i < b.N; i++ {
				if err := e.Run(io.Discard, 0.05); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
