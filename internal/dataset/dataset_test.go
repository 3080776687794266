package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func mustRegression(t *testing.T, n, m int, seed int64) *Dataset {
	t.Helper()
	d, err := GenerateRegression("test", n, m, 0.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateRegressionShapeAndDeterminism(t *testing.T) {
	d1 := mustRegression(t, 100, 5, 7)
	d2 := mustRegression(t, 100, 5, 7)
	if d1.N() != 100 || d1.M() != 5 {
		t.Fatalf("shape %dx%d", d1.N(), d1.M())
	}
	if !d1.X.Equal(d2.X, 0) {
		t.Fatal("same seed produced different features")
	}
	for i := range d1.Y {
		if d1.Y[i] != d2.Y[i] {
			t.Fatal("same seed produced different labels")
		}
	}
	d3 := mustRegression(t, 100, 5, 8)
	if d1.X.Equal(d3.X, 0) {
		t.Fatal("different seeds produced identical features")
	}
	if err := d1.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateRegressionLearnable(t *testing.T) {
	// Labels must be driven by the features: least squares on the generated
	// data should explain most of the variance.
	d := mustRegression(t, 500, 4, 1)
	g := d.X.Gram()
	for i := 0; i < 4; i++ {
		g.Add(i, i, 1e-8)
	}
	ch, err := mat.NewCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	w := ch.Solve(d.X.MulVecT(d.Y))
	pred := d.X.MulVec(w)
	var ssRes, ssTot, mean float64
	for _, y := range d.Y {
		mean += y
	}
	mean /= float64(len(d.Y))
	for i, y := range d.Y {
		ssRes += (y - pred[i]) * (y - pred[i])
		ssTot += (y - mean) * (y - mean)
	}
	r2 := 1 - ssRes/ssTot
	if r2 < 0.9 {
		t.Fatalf("R² = %v; generated regression data not learnable", r2)
	}
}

func TestGenerateBinaryLabelsAndSeparability(t *testing.T) {
	d, err := GenerateBinary("b", 400, 6, 1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	var pos int
	for _, y := range d.Y {
		if y == 1 {
			pos++
		}
	}
	if pos < 100 || pos > 300 {
		t.Fatalf("class balance off: %d/400 positive", pos)
	}
	// The class-mean difference should be substantial (separable clusters).
	meanDiff := make([]float64, d.M())
	var nPos, nNeg float64
	for i := 0; i < d.N(); i++ {
		row := d.X.Row(i)
		if d.Y[i] == 1 {
			nPos++
			for j, v := range row {
				meanDiff[j] += v
			}
		} else {
			nNeg++
			for j, v := range row {
				meanDiff[j] -= v
			}
		}
	}
	for j := range meanDiff {
		meanDiff[j] = meanDiff[j] / nPos
	}
	if mat.Norm2(meanDiff) < 1 {
		t.Fatalf("class means not separated: ‖Δμ‖ = %v", mat.Norm2(meanDiff))
	}
}

func TestGenerateMulticlassValid(t *testing.T) {
	d, err := GenerateMulticlass("m", 300, 10, 7, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, y := range d.Y {
		seen[int(y)] = true
	}
	if len(seen) < 5 {
		t.Fatalf("only %d of 7 classes generated", len(seen))
	}
}

func TestGenerateSparseBinary(t *testing.T) {
	d, err := GenerateSparseBinary("s", 50, 1000, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 50 || d.M() != 1000 {
		t.Fatalf("shape %dx%d", d.N(), d.M())
	}
	if den := d.X.Density(); den > 0.02 {
		t.Fatalf("density %v too high", den)
	}
	for _, y := range d.Y {
		if y != 1 && y != -1 {
			t.Fatalf("bad sparse label %v", y)
		}
	}
}

func TestSplitSizesAndDisjoint(t *testing.T) {
	d := mustRegression(t, 200, 3, 5)
	train, valid, err := d.Split(0.9, 11)
	if err != nil {
		t.Fatal(err)
	}
	if train.N() != 180 || valid.N() != 20 {
		t.Fatalf("split sizes %d/%d", train.N(), valid.N())
	}
	// Same seed reproduces the split.
	train2, _, err := d.Split(0.9, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !train.X.Equal(train2.X, 0) {
		t.Fatal("split not deterministic")
	}
	if _, _, err := d.Split(1.5, 1); err == nil {
		t.Fatal("expected error for bad frac")
	}
}

func TestConcatExtended(t *testing.T) {
	d := mustRegression(t, 30, 4, 6)
	ext, err := d.Concat(3)
	if err != nil {
		t.Fatal(err)
	}
	if ext.N() != 90 || ext.M() != 4 {
		t.Fatalf("Concat shape %dx%d", ext.N(), ext.M())
	}
	for c := 0; c < 3; c++ {
		for i := 0; i < 30; i++ {
			if ext.Y[c*30+i] != d.Y[i] {
				t.Fatal("Concat labels wrong")
			}
		}
	}
	if _, err := d.Concat(0); err == nil {
		t.Fatal("expected error for zero copies")
	}
}

func TestRemove(t *testing.T) {
	d := mustRegression(t, 10, 2, 9)
	r, err := d.Remove([]int{0, 9, 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 7 {
		t.Fatalf("Remove left %d rows", r.N())
	}
	// Surviving row order is preserved.
	wantRows := []int{1, 2, 3, 4, 6, 7, 8}
	for newI, i := range wantRows {
		if r.Y[newI] != d.Y[i] {
			t.Fatalf("row %d label mismatch", newI)
		}
	}
	if _, err := d.Remove([]int{99}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	all := make([]int, 10)
	for i := range all {
		all[i] = i
	}
	if _, err := d.Remove(all); err == nil {
		t.Fatal("expected error removing everything")
	}
}

func TestInjectDirty(t *testing.T) {
	d := mustRegression(t, 50, 3, 10)
	dirty, ids, err := d.InjectDirty(5, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("dirty ids %d", len(ids))
	}
	flagged := map[int]bool{}
	for _, i := range ids {
		flagged[i] = true
	}
	for i := 0; i < 50; i++ {
		same := true
		for j := 0; j < 3; j++ {
			if dirty.X.At(i, j) != d.X.At(i, j) {
				same = false
			}
		}
		if flagged[i] && same {
			t.Fatalf("row %d flagged dirty but unchanged", i)
		}
		if !flagged[i] && !same {
			t.Fatalf("row %d changed but not flagged", i)
		}
	}
	// Regression labels are rescaled too.
	if dirty.Y[ids[0]] != d.Y[ids[0]]*10 {
		t.Fatal("dirty regression label not rescaled")
	}
	if _, _, err := d.InjectDirty(50, 2, 1); err == nil {
		t.Fatal("expected error for count = n")
	}
}

func TestStandardize(t *testing.T) {
	d := mustRegression(t, 300, 4, 13)
	means, stds := d.Standardize()
	if len(means) != 4 || len(stds) != 4 {
		t.Fatal("bad standardization shapes")
	}
	for j := 0; j < 4; j++ {
		var mean, varr float64
		for i := 0; i < d.N(); i++ {
			mean += d.X.At(i, j)
		}
		mean /= float64(d.N())
		for i := 0; i < d.N(); i++ {
			dv := d.X.At(i, j) - mean
			varr += dv * dv
		}
		varr /= float64(d.N())
		if math.Abs(mean) > 1e-10 || math.Abs(varr-1) > 1e-8 {
			t.Fatalf("col %d: mean %v var %v after Standardize", j, mean, varr)
		}
	}
}

func TestSchemasMatchPaperTable1(t *testing.T) {
	want := map[string]struct {
		m, q   int
		sparse bool
	}{
		"SGEMM":     {18, 0, false},
		"Cov":       {54, 7, false},
		"HIGGS":     {28, 2, false},
		"RCV1":      {47236, 2, true},
		"Heartbeat": {188, 7, false},
		"cifar10":   {3072, 10, false},
	}
	if len(PaperSchemas) != len(want) {
		t.Fatalf("schema count %d", len(PaperSchemas))
	}
	for name, w := range want {
		s, err := SchemaByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Features != w.m || s.Classes != w.q || s.Sparse != w.sparse {
			t.Fatalf("schema %s = %+v, want %+v", name, s, w)
		}
	}
	if _, err := SchemaByName("nope"); err == nil {
		t.Fatal("expected unknown-schema error")
	}
}

func TestGenerateFromSchema(t *testing.T) {
	for _, s := range PaperSchemas {
		if s.Sparse {
			sp, err := GenerateSparseFromSchema(s, 20, 5, 1)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			if sp.M() != s.Features {
				t.Fatalf("%s sparse features %d", s.Name, sp.M())
			}
			if _, err := GenerateFromSchema(s, 20, 1); err == nil {
				t.Fatalf("%s: dense generation should fail for sparse schema", s.Name)
			}
			continue
		}
		var n int
		if s.Features > 1000 {
			n = 30 // keep cifar10-scale generation fast in tests
		} else {
			n = 100
		}
		d, err := GenerateFromSchema(s, n, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if d.M() != s.Features {
			t.Fatalf("%s features %d, want %d", s.Name, d.M(), s.Features)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if _, err := GenerateSparseFromSchema(s, 20, 5, 1); err == nil {
			t.Fatalf("%s: sparse generation should fail for dense schema", s.Name)
		}
	}
}

func TestExtendFeatures(t *testing.T) {
	d := mustRegression(t, 40, 18, 3)
	ext, err := d.ExtendFeatures(10, 99)
	if err != nil {
		t.Fatal(err)
	}
	if ext.M() != 28 || ext.N() != 40 {
		t.Fatalf("ExtendFeatures shape %dx%d", ext.N(), ext.M())
	}
	// Original features preserved.
	for i := 0; i < 40; i++ {
		for j := 0; j < 18; j++ {
			if ext.X.At(i, j) != d.X.At(i, j) {
				t.Fatal("original features modified")
			}
		}
	}
	if _, err := d.ExtendFeatures(0, 1); err == nil {
		t.Fatal("expected error for extra=0")
	}
}

func TestValidateCatchesBadLabels(t *testing.T) {
	d := &Dataset{Name: "bad", Task: BinaryClassification, Classes: 2,
		X: mat.NewDense(2, 2), Y: []float64{1, 0.5}}
	if err := d.Validate(); err == nil {
		t.Fatal("expected binary-label error")
	}
	d2 := &Dataset{Name: "bad2", Task: MultiClassification, Classes: 3,
		X: mat.NewDense(2, 2), Y: []float64{0, 3}}
	if err := d2.Validate(); err == nil {
		t.Fatal("expected multiclass-label error")
	}
	d3 := &Dataset{Name: "bad3", Task: Regression, X: mat.NewDense(2, 2), Y: []float64{1}}
	if err := d3.Validate(); err == nil {
		t.Fatal("expected length error")
	}
}

func TestRemovePlusConcatProperty(t *testing.T) {
	// Removing k arbitrary valid rows always leaves n-k rows.
	f := func(seed int64) bool {
		n := 20
		d := &Dataset{Name: "p", Task: Regression, X: mat.NewDense(n, 2), Y: make([]float64, n)}
		k := int(uint64(seed)%uint64(n-1)) + 1
		rm := make([]int, k)
		for i := range rm {
			rm[i] = (i * 7) % n
		}
		r, err := d.Remove(rm)
		if err != nil {
			return false
		}
		uniq := map[int]bool{}
		for _, i := range rm {
			uniq[i] = true
		}
		return r.N() == n-len(uniq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaskString(t *testing.T) {
	if Regression.String() != "regression" || BinaryClassification.String() != "binary" ||
		MultiClassification.String() != "multiclass" || Task(99).String() == "" {
		t.Fatal("Task.String broken")
	}
}
