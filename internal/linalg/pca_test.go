package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// makeAnisotropic generates samples stretched along a known direction so the
// first principal component is predictable.
func makeAnisotropic(rng *rand.Rand, n, d int) []Vector {
	samples := make([]Vector, n)
	for i := range samples {
		v := NewVector(d)
		main := rng.NormFloat64() * 10 // dominant variance along axis 0
		v[0] = main
		for j := 1; j < d; j++ {
			v[j] = rng.NormFloat64() * 0.1
		}
		samples[i] = v
	}
	return samples
}

func TestFitPCARecoversDominantAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := makeAnisotropic(rng, 200, 8)
	p, err := FitPCA(samples, 2)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	axis := p.Basis.Row(0)
	if math.Abs(axis[0]) < 0.99 {
		t.Errorf("first principal axis %v not aligned with dominant direction", axis)
	}
	if p.Explained[0] < 0.95 {
		t.Errorf("first component explains %v, want > 0.95", p.Explained[0])
	}
	if te := p.TotalExplained(); te < p.Explained[0] || te > 1+1e-9 {
		t.Errorf("TotalExplained = %v out of range", te)
	}
}

func TestPCAProjectionPreservesNeighborhoods(t *testing.T) {
	// Points close in input space should remain relatively close after PCA
	// when the discarded dimensions carry little variance.
	rng := rand.New(rand.NewSource(2))
	samples := makeAnisotropic(rng, 300, 16)
	p, err := FitPCA(samples, 4)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	a := samples[0]
	near := a.Clone()
	near[0] += 0.01
	far := a.Clone()
	far[0] += 25

	pa, _ := p.Project(a)
	pn, _ := p.Project(near)
	pf, _ := p.Project(far)
	if Dist(pa, pn) >= Dist(pa, pf) {
		t.Errorf("projection broke neighborhood order: near %v, far %v", Dist(pa, pn), Dist(pa, pf))
	}
}

func TestPCAProjectDimensionError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, err := FitPCA(makeAnisotropic(rng, 50, 4), 2)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	if _, err := p.Project(NewVector(5)); err == nil {
		t.Error("Project with wrong dimension should fail")
	}
}

func TestFitPCAErrors(t *testing.T) {
	if _, err := FitPCA([]Vector{{1, 2}}, 1); err == nil {
		t.Error("FitPCA with 1 sample should fail")
	}
	if _, err := FitPCA([]Vector{{1, 2}, {3, 4}}, 0); err == nil {
		t.Error("FitPCA with outDim 0 should fail")
	}
	if _, err := FitPCA([]Vector{{1, 2}, {3, 4}}, 3); err == nil {
		t.Error("FitPCA with outDim > inDim should fail")
	}
}

func TestPCAProjectionOfMeanIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	samples := makeAnisotropic(rng, 100, 6)
	p, err := FitPCA(samples, 3)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	proj, err := p.Project(p.Mean)
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if proj.Norm() > 1e-9 {
		t.Errorf("projection of mean = %v, want 0", proj)
	}
}
