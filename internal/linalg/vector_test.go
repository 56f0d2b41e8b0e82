package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, -1, 0.5}
	sum := v.Add(w)
	want := Vector{5, 1, 3.5}
	for i := range want {
		if sum[i] != want[i] {
			t.Errorf("Add[%d] = %v, want %v", i, sum[i], want[i])
		}
	}
	diff := sum.Sub(w)
	for i := range v {
		if !almostEqual(diff[i], v[i], 1e-12) {
			t.Errorf("Sub[%d] = %v, want %v", i, diff[i], v[i])
		}
	}
}

func TestVectorDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Dot(v); got != 25 {
		t.Errorf("Dot = %v, want 25", got)
	}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestVectorNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if !almostEqual(v.Norm(), 1, 1e-12) {
		t.Errorf("normalized norm = %v, want 1", v.Norm())
	}
	z := Vector{0, 0}
	z.Normalize() // must not panic or produce NaN
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("zero vector changed by Normalize: %v", z)
	}
}

func TestDist(t *testing.T) {
	v := Vector{0, 0}
	w := Vector{3, 4}
	if got := Dist(v, w); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]Vector{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if m[0] != 2 || m[1] != 3 {
		t.Errorf("Mean = %v, want [2 3]", m)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) should fail")
	}
	if _, err := Mean([]Vector{{1}, {1, 2}}); err == nil {
		t.Error("Mean with mixed dimensions should fail")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot with mismatched lengths should panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

// Property: ||v+w|| <= ||v|| + ||w|| (triangle inequality).
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(a, b [8]float64) bool {
		v, w := Vector(a[:]), Vector(b[:])
		for i := range v {
			v[i] = clampFinite(v[i])
			w[i] = clampFinite(w[i])
		}
		return v.Add(w).Norm() <= v.Norm()+w.Norm()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dot is symmetric and bilinear in scaling.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(a, b [6]float64, s float64) bool {
		v, w := Vector(a[:]), Vector(b[:])
		s = clampFinite(s)
		for i := range v {
			v[i] = clampFinite(v[i])
			w[i] = clampFinite(w[i])
		}
		if !almostEqual(v.Dot(w), w.Dot(v), 1e-6*(1+math.Abs(v.Dot(w)))) {
			return false
		}
		return almostEqual(v.Scale(s).Dot(w), s*v.Dot(w), 1e-3*(1+math.Abs(s*v.Dot(w))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampFinite maps arbitrary quick-generated floats into a numerically tame
// range so that property checks are not dominated by overflow.
func clampFinite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e3)
}
