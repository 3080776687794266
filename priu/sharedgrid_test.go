package priu

import (
	"bytes"
	"sync"
	"testing"
)

// TestConcurrentCapturesShareGridBitwise runs four concurrent captures of
// each family that linearizes the sigmoid, all on the process-wide default
// grid, and checks their models and snapshots bitwise against captures run
// one at a time. Under -race it also searches the grid's lazy build and its
// concurrent reads.
func TestConcurrentCapturesShareGridBitwise(t *testing.T) {
	prev := SetWorkers(4)
	t.Cleanup(func() { SetWorkers(prev) })

	dense, err := GenerateBinary("t-grid", 150, 8, 0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := GenerateSparseBinary("t-grid-sparse", 200, 40, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]TrainingSet{
		FamilyLogistic:       dense,
		FamilyLogisticOpt:    dense,
		FamilySparseLogistic: sparse,
	}
	// No WithLinearizerCells: every capture uses the shared grid.
	opts := []Option{WithEta(5e-3), WithLambda(0.05), WithBatchSize(30), WithIterations(25), WithSeed(11)}
	capture := func(fam string) (*Model, []byte, error) {
		u, err := Train(fam, sets[fam], opts...)
		if err != nil {
			return nil, nil, err
		}
		var snap bytes.Buffer
		if err := WriteSnapshot(&snap, fam, sets[fam], u); err != nil {
			return nil, nil, err
		}
		return u.Model(), snap.Bytes(), nil
	}

	type result struct {
		model *Model
		snap  []byte
		err   error
	}
	const copies = 4
	got := map[string][]result{}
	for fam := range sets {
		got[fam] = make([]result, copies)
	}
	var wg sync.WaitGroup
	for fam := range sets {
		for c := 0; c < copies; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := &got[fam][c]
				r.model, r.snap, r.err = capture(fam)
			}()
		}
	}
	wg.Wait()

	for fam := range sets {
		model, snap, err := capture(fam)
		if err != nil {
			t.Fatalf("serial %s: %v", fam, err)
		}
		for c, r := range got[fam] {
			if r.err != nil {
				t.Fatalf("concurrent %s #%d: %v", fam, c, r.err)
			}
			if !bitwiseEqual(r.model, model) {
				t.Fatalf("concurrent %s #%d: model differs from the serial capture", fam, c)
			}
			if !bytes.Equal(r.snap, snap) {
				t.Fatalf("concurrent %s #%d: snapshot bytes differ from the serial capture", fam, c)
			}
		}
	}
}
