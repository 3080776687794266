package priu

import (
	"repro/internal/dataset"
	"repro/internal/metrics"
)

// Dataset is a dense training set (row-major features + labels). It is an
// alias of the internal representation, so every method — Split, Remove,
// InjectDirty, ... — is available on values built here.
type Dataset = dataset.Dataset

// SparseDataset is the CSR training set used by the sparse-logistic family.
type SparseDataset = dataset.SparseDataset

// Task labels what a dataset's Y column means.
type Task = dataset.Task

// Task values.
const (
	// Regression marks continuous targets.
	Regression = dataset.Regression
	// BinaryClassification marks ±1 targets.
	BinaryClassification = dataset.BinaryClassification
	// MultiClassification marks 0..q−1 class targets.
	MultiClassification = dataset.MultiClassification
)

// GenerateRegression synthesizes an n×m regression dataset from a planted
// linear model with the given label-noise standard deviation.
func GenerateRegression(name string, n, m int, noise float64, seed int64) (*Dataset, error) {
	return dataset.GenerateRegression(name, n, m, noise, seed)
}

// GenerateBinary synthesizes an n×m ±1 classification dataset with the given
// class margin.
func GenerateBinary(name string, n, m int, margin float64, seed int64) (*Dataset, error) {
	return dataset.GenerateBinary(name, n, m, margin, seed)
}

// GenerateMulticlass synthesizes an n×m q-class dataset.
func GenerateMulticlass(name string, n, m, q int, margin float64, seed int64) (*Dataset, error) {
	return dataset.GenerateMulticlass(name, n, m, q, margin, seed)
}

// GenerateSparseBinary synthesizes an n×m CSR binary-classification dataset
// with about nnzPerRow stored entries per row (RCV1-style).
func GenerateSparseBinary(name string, n, m, nnzPerRow int, seed int64) (*SparseDataset, error) {
	return dataset.GenerateSparseBinary(name, n, m, nnzPerRow, seed)
}

// Comparison relates two models (cosine similarity, L2 distance, ...).
type Comparison = metrics.Comparison

// Compare relates two models parameter-wise.
func Compare(a, b *Model) (Comparison, error) { return metrics.Compare(a, b) }

// MSE returns a regression model's mean squared error on a dataset.
func MSE(model *Model, d *Dataset) (float64, error) { return metrics.MSE(model, d) }

// Accuracy returns a classification model's accuracy on a dense dataset.
func Accuracy(model *Model, d *Dataset) (float64, error) { return metrics.Accuracy(model, d) }

// AccuracySparse returns a binary model's accuracy on a sparse dataset.
func AccuracySparse(model *Model, d *SparseDataset) (float64, error) {
	return metrics.AccuracySparse(model, d)
}
