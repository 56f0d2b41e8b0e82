package lsh

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Params{Dim: 0}); err == nil {
		t.Error("zero dimension should fail")
	}
	if _, err := New(Params{Dim: 4, L: -1}); err == nil {
		t.Error("negative L should fail")
	}
	idx, err := New(Params{Dim: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := idx.params
	if p.L != 7 || p.M != 10 || p.Omega != 0.85 {
		t.Errorf("defaults = L%d M%d ω%v, want paper values 7/10/0.85", p.L, p.M, p.Omega)
	}
}

func TestInsertQueryDimensionMismatch(t *testing.T) {
	idx, _ := New(Params{Dim: 4})
	if err := idx.Insert(1, []float64{1, 2}); err == nil {
		t.Error("short vector insert should fail")
	}
	if _, err := idx.Query([]float64{1, 2, 3, 4, 5}); err == nil {
		t.Error("long vector query should fail")
	}
}

// cluster generates n points near center with the given spread.
func cluster(rng *rand.Rand, center []float64, n int, spread float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, len(center))
		for j := range v {
			v[j] = center[j] + rng.NormFloat64()*spread
		}
		out[i] = v
	}
	return out
}

func TestLocalityAwareGrouping(t *testing.T) {
	// The defining property: near points collide far more often than far
	// points. Build two tight, well-separated clusters and query from one.
	const dim = 16
	rng := rand.New(rand.NewSource(1))
	centerA := make([]float64, dim)
	centerB := make([]float64, dim)
	for i := range centerB {
		centerB[i] = 30
	}
	idx, err := New(Params{Dim: dim, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Spread 0.01 puts intra-cluster distances ~0.06, where the amplified
	// collision probability (L=7, M=10, ω=0.85) exceeds 0.99.
	a := cluster(rng, centerA, 50, 0.01)
	b := cluster(rng, centerB, 50, 0.01)
	for i, v := range a {
		if err := idx.Insert(ItemID(i), v); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range b {
		if err := idx.Insert(ItemID(1000+i), v); err != nil {
			t.Fatal(err)
		}
	}
	q := cluster(rng, centerA, 1, 0.01)[0]
	got, err := idx.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var near, far int
	for _, id := range got {
		if id < 1000 {
			near++
		} else {
			far++
		}
	}
	if near < 25 {
		t.Errorf("only %d/50 near-cluster items retrieved", near)
	}
	if far > near/4 {
		t.Errorf("too many far-cluster items: %d far vs %d near", far, near)
	}
}

func TestQueryDeduplicatesCandidates(t *testing.T) {
	idx, _ := New(Params{Dim: 4, Seed: 3})
	v := []float64{1, 2, 3, 4}
	if err := idx.Insert(42, v); err != nil {
		t.Fatal(err)
	}
	got, err := idx.Query(v)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, id := range got {
		if id == 42 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("item 42 returned %d times, want exactly once", count)
	}
}

func TestExactItemAlwaysFound(t *testing.T) {
	// An inserted vector queried verbatim must collide in every table.
	idx, _ := New(Params{Dim: 8, Seed: 11})
	rng := rand.New(rand.NewSource(2))
	vecs := cluster(rng, make([]float64, 8), 100, 5)
	for i, v := range vecs {
		if err := idx.Insert(ItemID(i), v); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range vecs {
		got, err := idx.Query(v)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, id := range got {
			if id == ItemID(i) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("item %d not found by its own vector", i)
		}
	}
}

func TestMultiProbeFindsMoreCandidates(t *testing.T) {
	const dim = 8
	rng := rand.New(rand.NewSource(5))
	base, _ := New(Params{Dim: dim, Seed: 9})
	probed, _ := New(Params{Dim: dim, Seed: 9, Probes: 10})
	pts := cluster(rng, make([]float64, dim), 300, 1.2)
	for i, v := range pts {
		_ = base.Insert(ItemID(i), v)
		_ = probed.Insert(ItemID(i), v)
	}
	var baseTotal, probedTotal int
	for trial := 0; trial < 20; trial++ {
		q := cluster(rng, make([]float64, dim), 1, 1.2)[0]
		b, _ := base.Query(q)
		p, _ := probed.Query(q)
		baseTotal += len(b)
		probedTotal += len(p)
	}
	if probedTotal < baseTotal {
		t.Errorf("multi-probe found fewer candidates (%d) than plain (%d)", probedTotal, baseTotal)
	}
}

func TestEstimateR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sample := cluster(rng, make([]float64, 6), 60, 1)
	r, err := EstimateR(sample, 0.5)
	if err != nil {
		t.Fatalf("EstimateR: %v", err)
	}
	if r <= 0 || math.IsInf(r, 0) {
		t.Errorf("R = %v not a usable radius", r)
	}
	// Higher quantile must not yield smaller R.
	r9, err := EstimateR(sample, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if r9 < r {
		t.Errorf("R(0.9) = %v < R(0.5) = %v", r9, r)
	}
}

func TestEstimateRErrors(t *testing.T) {
	if _, err := EstimateR(nil, 0.5); err == nil {
		t.Error("empty sample should fail")
	}
	if _, err := EstimateR([][]float64{{1}, {2}}, 0); err == nil {
		t.Error("quantile 0 should fail")
	}
	if _, err := EstimateR([][]float64{{1}, {2}}, 1.5); err == nil {
		t.Error("quantile > 1 should fail")
	}
	if _, err := EstimateR([][]float64{{1}, {1, 2}}, 0.5); err == nil {
		t.Error("incomparable samples should fail")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	mk := func() []ItemID {
		idx, _ := New(Params{Dim: 4, Seed: 99})
		rng := rand.New(rand.NewSource(6))
		for i, v := range cluster(rng, make([]float64, 4), 30, 1) {
			_ = idx.Insert(ItemID(i), v)
		}
		got, _ := idx.Query([]float64{0.1, -0.2, 0.3, 0})
		return got
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic candidate count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic candidates at %d", i)
		}
	}
}
