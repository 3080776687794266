package gbm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
)

func linearFixture(t *testing.T, n, m int) (*dataset.Dataset, Config, *Schedule) {
	t.Helper()
	d, err := dataset.GenerateRegression("fix", n, m, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Eta: 0.01, Lambda: 0.01, BatchSize: 32, Iterations: 400, Seed: 2}
	sched, err := NewSchedule(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, cfg, sched
}

func binaryFixture(t *testing.T, n, m int) (*dataset.Dataset, Config, *Schedule) {
	t.Helper()
	d, err := dataset.GenerateBinary("fixb", n, m, 1.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Eta: 0.05, Lambda: 0.01, BatchSize: 32, Iterations: 500, Seed: 4}
	sched, err := NewSchedule(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, cfg, sched
}

func TestConfigValidate(t *testing.T) {
	good := Config{Eta: 0.1, Lambda: 0.1, BatchSize: 10, Iterations: 5}
	if err := good.Validate(100); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Eta: 0, Lambda: 0.1, BatchSize: 10, Iterations: 5},
		{Eta: 0.1, Lambda: -1, BatchSize: 10, Iterations: 5},
		{Eta: 0.1, Lambda: 0.1, BatchSize: 0, Iterations: 5},
		{Eta: 0.1, Lambda: 0.1, BatchSize: 200, Iterations: 5},
		{Eta: 0.1, Lambda: 0.1, BatchSize: 10, Iterations: 0},
	}
	for i, c := range bad {
		if err := c.Validate(100); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
}

func TestScheduleDeterminismAndBounds(t *testing.T) {
	cfg := Config{Eta: 0.1, Lambda: 0, BatchSize: 8, Iterations: 20, Seed: 9}
	s1, err := NewSchedule(50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewSchedule(50, cfg)
	for tIdx := 0; tIdx < 20; tIdx++ {
		b1, b2 := s1.Batch(tIdx), s2.Batch(tIdx)
		if len(b1) != 8 {
			t.Fatalf("batch size %d", len(b1))
		}
		seen := map[int]bool{}
		for k := range b1 {
			if b1[k] != b2[k] {
				t.Fatal("schedule not deterministic")
			}
			if b1[k] < 0 || b1[k] >= 50 {
				t.Fatalf("index %d out of range", b1[k])
			}
			if seen[b1[k]] {
				t.Fatal("duplicate index within a batch")
			}
			seen[b1[k]] = true
		}
	}
	if s1.FootprintBytes() != 20*8*8 {
		t.Fatalf("FootprintBytes = %d", s1.FootprintBytes())
	}
}

func TestScheduleFullBatchGD(t *testing.T) {
	cfg := Config{Eta: 0.1, Lambda: 0, BatchSize: 10, Iterations: 3, Seed: 1}
	s, err := NewSchedule(10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tIdx := 0; tIdx < 3; tIdx++ {
		b := s.Batch(tIdx)
		for i := range b {
			if b[i] != i {
				t.Fatal("full-batch schedule should be the identity")
			}
		}
	}
}

// TestScheduleMatchesPermOracle pins NewSchedule's contract: batch t is the
// BatchSize-prefix of the t-th rand.Perm(n) drawn in sequence from one
// rand.New(rand.NewSource(seed)), and a full batch is 0..n−1 without draws.
// Every case spans several iterations, so a draw that skips or adds even one
// Intn call shifts the stream under the next batch and fails here.
func TestScheduleMatchesPermOracle(t *testing.T) {
	cases := []struct{ n, b int }{
		{2, 1},       // smallest sampled batch
		{97, 1},      // B = 1
		{97, 96},     // B = n−1
		{64, 10},     // n a power of two (Intn's masking branch for i+1 = n)
		{1024, 1023}, // n a power of two, B = n−1
		{1000, 37},
		{40, 40}, // full-batch GD, B = n
	}
	for _, c := range cases {
		for _, seed := range []int64{1, 7, 42} {
			const iters = 6
			cfg := Config{Eta: 0.1, BatchSize: c.b, Iterations: iters, Seed: seed}
			s, err := NewSchedule(c.n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < iters; it++ {
				var want []int
				if c.b == c.n {
					want = make([]int, c.n)
					for i := range want {
						want[i] = i
					}
				} else {
					want = rng.Perm(c.n)[:c.b]
				}
				got := s.Batch(it)
				if len(got) != c.b || cap(got) != c.b {
					t.Fatalf("n=%d B=%d seed=%d: batch %d len %d cap %d", c.n, c.b, seed, it, len(got), cap(got))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("n=%d B=%d seed=%d: batch %d slot %d = %d, want %d", c.n, c.b, seed, it, k, got[k], want[k])
					}
				}
			}
		}
	}
}

func TestSurvivorCountAndRemovalSet(t *testing.T) {
	cfg := Config{Eta: 0.1, Lambda: 0, BatchSize: 5, Iterations: 1, Seed: 1}
	s, err := NewSchedule(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rm, ids, err := Removals(5, []int{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SurvivorCount(0, rm); got != 3 {
		t.Fatalf("SurvivorCount = %d", got)
	}
	if got := s.SurvivorCount(0, nil); got != 5 {
		t.Fatalf("SurvivorCount(nil) = %d", got)
	}
	if !reflect.DeepEqual(ids, []int{3, 0}) {
		t.Fatalf("ids = %v, want the input order", ids)
	}
	// Duplicates collapse onto their first occurrence, in log order, on a
	// private copy (the caller's slice is left alone).
	in := []int{4, 1, 4, 2, 1}
	if _, ids, err = Removals(5, in); err != nil || !reflect.DeepEqual(ids, []int{4, 1, 2}) {
		t.Fatalf("dedup ids = %v (err %v), want [4 1 2]", ids, err)
	}
	if !reflect.DeepEqual(in, []int{4, 1, 4, 2, 1}) {
		t.Fatalf("Removals mutated its input: %v", in)
	}
	if mask, ids, err := Removals(5, nil); mask != nil || ids != nil || err != nil {
		t.Fatalf("empty removal = %v %v %v, want all nil", mask, ids, err)
	}
	if _, _, err := Removals(5, []int{1, 7}); err == nil || err.Error() != "gbm: removed index 7 out of range [0,5)" {
		t.Fatalf("range error = %v", err)
	}
}

func TestTrainLinearConverges(t *testing.T) {
	d, cfg, sched := linearFixture(t, 400, 6)
	model, err := TrainLinear(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	zeroLoss := LinearObjective(d, make([]float64, 6), cfg.Lambda)
	loss := LinearObjective(d, model.W.Row(0), cfg.Lambda)
	if loss > zeroLoss/4 {
		t.Fatalf("trained loss %v vs zero-model loss %v", loss, zeroLoss)
	}
}

func TestTrainLinearMatchesClosedFormOnGD(t *testing.T) {
	// With full-batch GD and enough iterations, mb-SGD must approach the
	// ridge closed-form solution.
	d, err := dataset.GenerateRegression("gd", 100, 4, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Eta: 0.05, Lambda: 0.1, BatchSize: 100, Iterations: 3000, Seed: 1}
	sched, err := NewSchedule(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := TrainLinear(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form: (2/n·XᵀX + λI) w = 2/n·XᵀY.
	g := d.X.Gram().Scale(2.0 / 100)
	for i := 0; i < 4; i++ {
		g.Add(i, i, cfg.Lambda)
	}
	ch, err := mat.NewCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	rhs := d.X.MulVecT(d.Y)
	mat.ScaleVec(rhs, 2.0/100)
	want := ch.Solve(rhs)
	if dist := mat.Distance(model.W.Row(0), want); dist > 1e-4*(1+mat.Norm2(want)) {
		t.Fatalf("GD differs from closed form by %v", dist)
	}
}

func TestTrainLinearWithRemovalMatchesRetrainOnSubset(t *testing.T) {
	// BaseL with an exclusion set must equal training on the physically
	// reduced dataset when the schedule is the trivial full-batch one.
	d, err := dataset.GenerateRegression("rm", 60, 3, 0.05, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Eta: 0.02, Lambda: 0.05, BatchSize: 60, Iterations: 200, Seed: 3}
	sched, err := NewSchedule(60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	removedIdx := []int{5, 17, 40}
	rm, _, _ := Removals(60, removedIdx)
	got, err := TrainLinear(d, cfg, sched, rm)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := d.Remove(removedIdx)
	if err != nil {
		t.Fatal(err)
	}
	cfgSub := cfg
	cfgSub.BatchSize = sub.N()
	schedSub, err := NewSchedule(sub.N(), cfgSub)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TrainLinear(sub, cfgSub, schedSub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dist := mat.Distance(got.W.Row(0), want.W.Row(0)); dist > 1e-10 {
		t.Fatalf("exclusion-based and physical retraining differ by %v", dist)
	}
}

func TestTrainLogisticConvergesAndClassifies(t *testing.T) {
	d, cfg, sched := binaryFixture(t, 400, 6)
	model, err := TrainLogistic(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	preds := model.PredictBinary(d.X)
	correct := 0
	for i, p := range preds {
		if p == d.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(preds))
	if acc < 0.85 {
		t.Fatalf("training accuracy %v too low", acc)
	}
	// Loss must beat the zero model.
	if LogisticObjective(d, model.W.Row(0), cfg.Lambda) >= LogisticObjective(d, make([]float64, 6), cfg.Lambda) {
		t.Fatal("logistic training did not reduce the objective")
	}
}

func TestTrainLogisticRejectsWrongTask(t *testing.T) {
	d, cfg, sched := linearFixture(t, 50, 3)
	if _, err := TrainLogistic(d, cfg, sched, nil); err == nil {
		t.Fatal("expected task error")
	}
	if _, err := TrainMultinomial(d, cfg, sched, nil); err == nil {
		t.Fatal("expected task error")
	}
}

func TestTrainMultinomialConverges(t *testing.T) {
	d, err := dataset.GenerateMulticlass("mc", 600, 8, 4, 2.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Eta: 0.05, Lambda: 0.01, BatchSize: 64, Iterations: 600, Seed: 6}
	sched, err := NewSchedule(600, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := TrainMultinomial(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	preds := model.PredictMulticlass(d.X)
	correct := 0
	for i, p := range preds {
		if p == d.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 600; acc < 0.8 {
		t.Fatalf("multiclass accuracy %v too low", acc)
	}
	if MultinomialObjective(d, model.W, cfg.Lambda) >= MultinomialObjective(d, mat.NewDense(4, 8), cfg.Lambda) {
		t.Fatal("multinomial training did not reduce the objective")
	}
}

func TestTrainLogisticSparse(t *testing.T) {
	d, err := dataset.GenerateSparseBinary("sp", 200, 500, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Eta: 0.1, Lambda: 0.01, BatchSize: 32, Iterations: 300, Seed: 8}
	sched, err := NewSchedule(200, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := TrainLogisticSparse(d, cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	preds := model.PredictBinarySparse(d)
	correct := 0
	for i, p := range preds {
		if p == d.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.8 {
		t.Fatalf("sparse accuracy %v too low", acc)
	}
}

func TestEmptyBatchOnlyRegularizes(t *testing.T) {
	// Remove every sample in the dataset except one that never appears in the
	// (single) batch — impossible with full coverage, so instead remove all
	// batch members and check the decay-only path.
	d, err := dataset.GenerateRegression("e", 10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Eta: 0.1, Lambda: 0.5, BatchSize: 10, Iterations: 1, Seed: 1}
	sched, err := NewSchedule(10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]bool, 10)
	for i := range all {
		all[i] = true
	}
	model, err := TrainLinear(d, cfg, sched, all)
	if err != nil {
		t.Fatal(err)
	}
	// w0 = 0 so one decay step keeps it at 0.
	if mat.Norm2(model.W.Row(0)) != 0 {
		t.Fatal("decay-only step from zero should stay zero")
	}
}

func TestPredictLinear(t *testing.T) {
	w := mat.NewDenseData(1, 2, []float64{2, -1})
	model := &Model{Task: dataset.Regression, W: w}
	x := mat.NewDenseData(2, 2, []float64{1, 1, 3, 0})
	preds := model.PredictLinear(x)
	if preds[0] != 1 || preds[1] != 6 {
		t.Fatalf("PredictLinear = %v", preds)
	}
	if len(model.Vec()) != 2 {
		t.Fatal("Vec length")
	}
	c := model.Clone()
	c.W.Set(0, 0, 99)
	if model.W.At(0, 0) == 99 {
		t.Fatal("Clone aliases")
	}
}

func TestSoftmaxAndLogSumExp(t *testing.T) {
	p := make([]float64, 3)
	Softmax(p, []float64{1000, 1000, 1000}) // stability check
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("Softmax = %v", p)
		}
	}
	if math.Abs(logSumExp([]float64{0, 0})-math.Log(2)) > 1e-12 {
		t.Fatal("logSumExp wrong")
	}
}

func TestObjectiveDecreasesMonotonicallyUnderGD(t *testing.T) {
	// Strong-convexity sanity check from Sec 4.3: under GD with η < 1/L the
	// objective decreases every step. Track it across checkpoints.
	d, err := dataset.GenerateRegression("mono", 80, 3, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.1
	prev := math.Inf(1)
	for _, iters := range []int{1, 5, 20, 100, 400} {
		cfg := Config{Eta: 0.02, Lambda: lambda, BatchSize: 80, Iterations: iters, Seed: 1}
		sched, err := NewSchedule(80, cfg)
		if err != nil {
			t.Fatal(err)
		}
		model, err := TrainLinear(d, cfg, sched, nil)
		if err != nil {
			t.Fatal(err)
		}
		loss := LinearObjective(d, model.W.Row(0), lambda)
		if loss > prev+1e-12 {
			t.Fatalf("objective increased: %v -> %v at %d iters", prev, loss, iters)
		}
		prev = loss
	}
}

func TestScheduleMismatchErrors(t *testing.T) {
	d, cfg, _ := linearFixture(t, 50, 3)
	other, err := NewSchedule(40, Config{Eta: 0.1, Lambda: 0, BatchSize: 10, Iterations: cfg.Iterations, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainLinear(d, cfg, other, nil); err == nil {
		t.Fatal("expected schedule size mismatch error")
	}
	short, err := NewSchedule(50, Config{Eta: 0.1, Lambda: 0, BatchSize: 10, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainLinear(d, cfg, short, nil); err == nil {
		t.Fatal("expected schedule length error")
	}
	if _, err := TrainLinear(d, cfg, nil, nil); err == nil {
		t.Fatal("expected nil schedule error")
	}
}
