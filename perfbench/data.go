package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/priu"
	"repro/priu/service"
)

// hyper is the training configuration a workload sends with each session.
type hyper struct {
	eta, lambda float64
	batch, iter int
}

// sessionData generates one session's training request for family: n rows,
// m features, labels shaped for the family's task. Sparse families are
// uploaded as a CSR triple with 4 stored values per row.
func sessionData(family string, n, m int, h hyper, seed int64) (service.CreateSessionRequest, error) {
	f, ok := priu.Lookup(family)
	if !ok {
		return service.CreateSessionRequest{}, fmt.Errorf("unknown family %q", family)
	}
	req := service.CreateSessionRequest{
		Family: family, Eta: h.eta, Lambda: h.lambda,
		BatchSize: h.batch, Iterations: h.iter, Seed: seed,
	}
	if f.Sparse {
		sp, err := priu.GenerateSparseBinary(family, n, m, 4, seed)
		if err != nil {
			return req, err
		}
		req.Cols = m
		req.Indptr = make([]int, 0, n+1)
		req.Indptr = append(req.Indptr, 0)
		for i := 0; i < n; i++ {
			cols, vals := sp.X.Row(i)
			req.Indices = append(req.Indices, cols...)
			req.Values = append(req.Values, vals...)
			req.Indptr = append(req.Indptr, len(req.Values))
		}
		req.Labels = sp.Y
		return req, nil
	}
	var (
		d   *priu.Dataset
		err error
	)
	switch f.Task {
	case priu.Regression:
		d, err = priu.GenerateRegression(family, n, m, 0.1, seed)
	case priu.BinaryClassification:
		d, err = priu.GenerateBinary(family, n, m, 1.0, seed)
	default:
		d, err = priu.GenerateMulticlass(family, n, m, 3, 2.0, seed)
		req.Classes = 3
	}
	if err != nil {
		return req, err
	}
	req.Features = make([][]float64, n)
	for i := range req.Features {
		req.Features[i] = d.X.Row(i)
	}
	req.Labels = d.Y
	return req, nil
}

// trainingSet rebuilds the training set the server builds from req, with the
// same constructors, so a direct capture in the output checks sees the same
// bits the service trained on.
func trainingSet(req service.CreateSessionRequest) (priu.TrainingSet, error) {
	f, ok := priu.Lookup(req.Family)
	if !ok {
		return nil, fmt.Errorf("unknown family %q", req.Family)
	}
	n := len(req.Labels)
	if f.Sparse {
		trips := make([]sparse.Triplet, 0, len(req.Values))
		for i := 0; i < n; i++ {
			for k := req.Indptr[i]; k < req.Indptr[i+1]; k++ {
				trips = append(trips, sparse.Triplet{Row: i, Col: req.Indices[k], Val: req.Values[k]})
			}
		}
		x, err := sparse.NewCSR(n, req.Cols, trips)
		if err != nil {
			return nil, err
		}
		return &priu.SparseDataset{Name: "api", Task: f.Task, Classes: 2, X: x, Y: req.Labels}, nil
	}
	m := len(req.Features[0])
	x := make([]float64, 0, n*m)
	for _, row := range req.Features {
		x = append(x, row...)
	}
	classes := req.Classes
	switch f.Task {
	case priu.Regression:
		classes = 0
	case priu.BinaryClassification:
		classes = 2
	}
	return &priu.Dataset{Name: "api", Task: f.Task, Classes: classes, X: mat.NewDenseData(n, m, x), Y: req.Labels}, nil
}

func configOf(req service.CreateSessionRequest) priu.Config {
	return priu.Config{Eta: req.Eta, Lambda: req.Lambda, BatchSize: req.BatchSize, Iterations: req.Iterations, Seed: req.Seed}
}

// perm is a seeded permutation of [0, n).
func perm(n int, seed int64) []int { return rand.New(rand.NewSource(seed)).Perm(n) }

// sameBits reports whether two parameter vectors are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
