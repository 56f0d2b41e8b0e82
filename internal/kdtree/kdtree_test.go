package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randPoints(rng *rand.Rand, n, dim int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		pts[i] = Point{Vec: v, ID: uint64(i + 1)}
	}
	return pts
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("empty build should fail")
	}
	if _, err := Build([]Point{{Vec: nil}}); err == nil {
		t.Error("zero-dim should fail")
	}
	if _, err := Build([]Point{{Vec: []float64{1}}, {Vec: []float64{1, 2}}}); err == nil {
		t.Error("ragged dims should fail")
	}
}

func TestBuildBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, err := Build(randPoints(rng, 1023, 3))
	if err != nil {
		t.Fatal(err)
	}
	if tr.dim != 3 {
		t.Fatalf("dim = %d, want 3", tr.dim)
	}
	var height func(n *node) int
	height = func(n *node) int {
		if n == nil {
			return 0
		}
		return 1 + max(height(n.left), height(n.right))
	}
	// Median splits give height exactly ceil(log2(n+1)) for this n.
	if h := height(tr.root); h != 10 {
		t.Errorf("height = %d, want 10 for 1023 balanced points", h)
	}
}

func TestNearestMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 500, 4)
	// Copy: Build reorders its input.
	ref := make([]Point, len(pts))
	for i := range pts {
		ref[i] = Point{Vec: append([]float64(nil), pts[i].Vec...), ID: pts[i].ID}
	}
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		const k = 7
		got, err := tr.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("returned %d neighbors, want %d", len(got), k)
		}
		dists := make([]float64, len(ref))
		for i, p := range ref {
			dists[i] = dist(q, p.Vec)
		}
		sort.Float64s(dists)
		for i, nb := range got {
			if math.Abs(nb.Dist-dists[i]) > 1e-9 {
				t.Fatalf("trial %d rank %d: %v vs linear %v", trial, i, nb.Dist, dists[i])
			}
			if i > 0 && got[i].Dist < got[i-1].Dist {
				t.Fatal("neighbors not sorted")
			}
		}
	}
}

func TestNearestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, _ := Build(randPoints(rng, 10, 2))
	if _, err := tr.Nearest([]float64{1}, 3); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, err := tr.Nearest([]float64{1, 2}, 0); err == nil {
		t.Error("k=0 should fail")
	}
	// k > n returns all points.
	got, err := tr.Nearest([]float64{0, 0}, 50)
	if err != nil || len(got) != 10 {
		t.Errorf("k>n: %d results, %v", len(got), err)
	}
}

func TestVisitedGrowsLogarithmically(t *testing.T) {
	// kNN on a balanced tree should visit far fewer nodes than the corpus.
	rng := rand.New(rand.NewSource(6))
	const n = 4096
	tr, _ := Build(randPoints(rng, n, 3))
	tr.Visited = 0
	if _, err := tr.Nearest([]float64{50, 50, 50}, 1); err != nil {
		t.Fatal(err)
	}
	if tr.Visited >= n/2 {
		t.Errorf("1-NN visited %d of %d nodes; pruning ineffective", tr.Visited, n)
	}
}
