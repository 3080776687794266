package mat

import (
	"fmt"
	"math"
)

// Vector helpers operate on []float64 directly so hot loops stay allocation
// free; they are the vector half of the substrate.

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Axpy accumulates dst[i] += a*x[i].
func Axpy(dst []float64, a float64, x []float64) {
	if len(dst) != len(x) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		dst[i] += a * v
	}
}

// ScaleVec multiplies x by a in place.
func ScaleVec(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// ZeroVec sets every element of x to zero.
func ZeroVec(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Distance returns the Euclidean distance between x and y.
func Distance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Distance length mismatch")
	}
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// CosineSimilarity returns the cosine of the angle between x and y, or 0 if
// either vector is zero.
func CosineSimilarity(x, y []float64) float64 {
	nx, ny := Norm2(x), Norm2(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	return Dot(x, y) / (nx * ny)
}
