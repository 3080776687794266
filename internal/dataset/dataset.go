// Package dataset provides the training-data layer of the reproduction:
// dense and sparse datasets, deterministic synthetic generators matching the
// schemas of the six datasets in the paper's Table 1, dirty-sample injection
// (the cleaning scenario of Sec 6.2), train/validation splits, and dataset
// concatenation (the "extended" variants used for the repeated-deletion
// experiments).
//
// The original UCI/Kaggle corpora are not available offline, so each
// generator synthesizes data with the same shape — feature count, class
// count, dense/sparse layout, continuous-vs-categorical label — at a
// configurable scale. Update-time behaviour of PrIU and its baselines
// depends on these shape parameters, not on the raw values, so the
// substitution preserves the phenomena the experiments measure (see
// DESIGN.md, "Substitutions").
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/sparse"
)

// Task distinguishes regression from classification datasets.
type Task int

const (
	// Regression marks continuous labels (linear regression).
	Regression Task = iota
	// BinaryClassification marks labels in {-1, +1}.
	BinaryClassification
	// MultiClassification marks labels in {0..Classes-1}.
	MultiClassification
)

// String returns the task name.
func (t Task) String() string {
	switch t {
	case Regression:
		return "regression"
	case BinaryClassification:
		return "binary"
	case MultiClassification:
		return "multiclass"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// Dataset is a dense training set: an n×m feature matrix with an n-vector of
// labels. Classification labels are stored as float64 (-1/+1 for binary,
// class index for multiclass).
type Dataset struct {
	Name    string
	Task    Task
	Classes int // number of classes for MultiClassification, 2 for binary
	X       *mat.Dense
	Y       []float64
}

// N returns the number of samples.
func (d *Dataset) N() int { return d.X.Rows() }

// M returns the number of features.
func (d *Dataset) M() int { return d.X.Cols() }

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	return &Dataset{
		Name:    d.Name,
		Task:    d.Task,
		Classes: d.Classes,
		X:       d.X.Clone(),
		Y:       mat.CloneVec(d.Y),
	}
}

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if d.X == nil {
		return fmt.Errorf("dataset %q: nil feature matrix", d.Name)
	}
	if len(d.Y) != d.X.Rows() {
		return fmt.Errorf("dataset %q: %d labels for %d rows", d.Name, len(d.Y), d.X.Rows())
	}
	switch d.Task {
	case BinaryClassification:
		for i, y := range d.Y {
			if y != 1 && y != -1 {
				return fmt.Errorf("dataset %q: binary label %v at row %d", d.Name, y, i)
			}
		}
	case MultiClassification:
		if d.Classes < 2 {
			return fmt.Errorf("dataset %q: multiclass with %d classes", d.Name, d.Classes)
		}
		for i, y := range d.Y {
			k := int(y)
			if float64(k) != y || k < 0 || k >= d.Classes {
				return fmt.Errorf("dataset %q: class label %v at row %d", d.Name, y, i)
			}
		}
	}
	return nil
}

// Split partitions the dataset into train (first trainFrac of a deterministic
// shuffle) and validation subsets, mirroring the paper's 90/10 protocol.
func (d *Dataset) Split(trainFrac float64, seed int64) (train, valid *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: trainFrac %v out of (0,1)", trainFrac)
	}
	n := d.N()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	nTrain := int(math.Round(float64(n) * trainFrac))
	if nTrain < 1 || nTrain >= n {
		return nil, nil, fmt.Errorf("dataset: split of %d samples at %v leaves an empty side", n, trainFrac)
	}
	take := func(idx []int) *Dataset {
		x := mat.NewDense(len(idx), d.M())
		y := make([]float64, len(idx))
		for newI, i := range idx {
			copy(x.Row(newI), d.X.Row(i))
			y[newI] = d.Y[i]
		}
		return &Dataset{Name: d.Name, Task: d.Task, Classes: d.Classes, X: x, Y: y}
	}
	return take(perm[:nTrain]), take(perm[nTrain:]), nil
}

// Remove returns a copy of the dataset without the rows in removed.
func (d *Dataset) Remove(removed []int) (*Dataset, error) {
	drop := make(map[int]bool, len(removed))
	for _, r := range removed {
		if r < 0 || r >= d.N() {
			return nil, fmt.Errorf("dataset: removal index %d out of range [0,%d)", r, d.N())
		}
		drop[r] = true
	}
	keep := make([]int, 0, d.N()-len(drop))
	for i := 0; i < d.N(); i++ {
		if !drop[i] {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("dataset: removal would delete every sample")
	}
	x := mat.NewDense(len(keep), d.M())
	y := make([]float64, len(keep))
	for newI, i := range keep {
		copy(x.Row(newI), d.X.Row(i))
		y[newI] = d.Y[i]
	}
	return &Dataset{Name: d.Name, Task: d.Task, Classes: d.Classes, X: x, Y: y}, nil
}

// SparseDataset is the CSR analogue of Dataset (RCV1-style workloads).
type SparseDataset struct {
	Name    string
	Task    Task
	Classes int
	X       *sparse.CSR
	Y       []float64
}

// N returns the number of samples.
func (d *SparseDataset) N() int { r, _ := d.X.Dims(); return r }

// M returns the number of features.
func (d *SparseDataset) M() int { _, c := d.X.Dims(); return c }

// InjectDirty implements the cleaning-scenario corruption of Sec 6.2: a
// deterministic subset of `count` rows is rescaled by `scale` (features and,
// for regression, labels), producing T_dirty. It returns the corrupted copy
// and the indices of the dirty rows (the set removed in the update phase).
func (d *Dataset) InjectDirty(count int, scale float64, seed int64) (*Dataset, []int, error) {
	if count < 0 || count >= d.N() {
		return nil, nil, fmt.Errorf("dataset: dirty count %d out of range for n=%d", count, d.N())
	}
	out := d.Clone()
	out.Name = d.Name + " (dirty)"
	perm := rand.New(rand.NewSource(seed)).Perm(d.N())
	dirty := make([]int, count)
	copy(dirty, perm[:count])
	for _, i := range dirty {
		row := out.X.Row(i)
		for j := range row {
			row[j] *= scale
		}
		if d.Task == Regression {
			out.Y[i] *= scale
		}
	}
	return out, dirty, nil
}
