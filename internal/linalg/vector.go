// Package linalg provides the small dense linear-algebra kernel used by the
// FAST reproduction: vectors, row-major matrices, covariance estimation, a
// Jacobi eigensolver and principal-components analysis (PCA).
//
// PCA is the core of the PCA-SIFT descriptor (Ke & Sukthankar, CVPR'04) that
// the paper uses for its Feature Extraction module: raw gradient-patch
// descriptors are projected onto the top principal components of a training
// sample, which both compacts the representation and discards loosely
// correlated dimensions.
//
// Everything here is self-contained (stdlib only) and deterministic.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Add returns v + w. It panics if lengths differ.
func (v Vector) Add(w Vector) Vector {
	mustSameLen(len(v), len(w))
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w. It panics if lengths differ.
func (v Vector) Sub(w Vector) Vector {
	mustSameLen(len(v), len(w))
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// AddInPlace adds w into v.
func (v Vector) AddInPlace(w Vector) {
	mustSameLen(len(v), len(w))
	for i := range v {
		v[i] += w[i]
	}
}

// Scale returns s*v.
func (v Vector) Scale(s float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// ScaleInPlace multiplies v by s.
func (v Vector) ScaleInPlace(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	mustSameLen(len(v), len(w))
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean (l2) norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize scales v to unit l2 norm in place. A zero vector is unchanged.
func (v Vector) Normalize() {
	n := v.Norm()
	if n == 0 {
		return
	}
	v.ScaleInPlace(1 / n)
}

// Dist returns the Euclidean distance between v and w.
func Dist(v, w Vector) float64 {
	mustSameLen(len(v), len(w))
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Mean returns the component-wise mean of the vectors. It returns an error
// if vecs is empty or dimensions disagree.
func Mean(vecs []Vector) (Vector, error) {
	if len(vecs) == 0 {
		return nil, errors.New("linalg: mean of empty set")
	}
	d := len(vecs[0])
	m := NewVector(d)
	for _, v := range vecs {
		if len(v) != d {
			return nil, fmt.Errorf("linalg: mixed dimensions %d and %d", d, len(v))
		}
		m.AddInPlace(v)
	}
	m.ScaleInPlace(1 / float64(len(vecs)))
	return m, nil
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("linalg: dimension mismatch %d != %d", a, b))
	}
}
