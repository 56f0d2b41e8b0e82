package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestRectOps(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping rects reported disjoint")
	}
	c := Rect{5, 5, 6, 6}
	if a.Intersects(c) {
		t.Error("disjoint rects reported overlapping")
	}
	u := a.Union(b)
	if u != (Rect{0, 0, 3, 3}) {
		t.Errorf("Union = %+v", u)
	}
	if a.Area() != 4 {
		t.Errorf("Area = %v, want 4", a.Area())
	}
	if !Point(1, 1).Valid() || (Rect{2, 0, 1, 1}).Valid() {
		t.Error("Valid broken")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(3, 4); err == nil {
		t.Error("max < 2*min should fail")
	}
	if _, err := New(0, 5); err == nil {
		t.Error("min 0 with max set should fail")
	}
	tr, err := New(0, 0)
	if err != nil {
		t.Fatalf("New defaults: %v", err)
	}
	if tr.size != 0 || height(tr) != 1 {
		t.Errorf("fresh tree size=%d height=%d", tr.size, height(tr))
	}
}

// height counts the levels from the root to the leaves (1 for a single leaf).
func height(tr *Tree) int {
	h := 1
	for n := tr.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

func TestInsertRejectsInvalidRect(t *testing.T) {
	tr, _ := New(0, 0)
	if err := tr.Insert(Entry{Rect: Rect{1, 1, 0, 0}, ID: 1}); err == nil {
		t.Error("invalid rect should fail")
	}
}

func TestSearchFindsAllInserted(t *testing.T) {
	tr, _ := New(0, 0)
	rng := rand.New(rand.NewSource(1))
	const n = 500
	pts := make([]Rect, n)
	for i := range pts {
		pts[i] = Point(rng.Float64()*100, rng.Float64()*100)
		if err := tr.Insert(Entry{Rect: pts[i], ID: uint64(i)}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tr.size != n {
		t.Fatalf("size = %d, want %d", tr.size, n)
	}
	// Whole-space query returns everything exactly once.
	all := tr.Search(Rect{-1, -1, 101, 101})
	if len(all) != n {
		t.Fatalf("whole-space search returned %d, want %d", len(all), n)
	}
	seen := make(map[uint64]bool)
	for _, e := range all {
		if seen[e.ID] {
			t.Fatalf("duplicate ID %d", e.ID)
		}
		seen[e.ID] = true
	}
	// Range query matches linear scan.
	q := Rect{20, 20, 40, 60}
	got := tr.Search(q)
	want := 0
	for _, p := range pts {
		if p.Intersects(q) {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("range search returned %d, linear scan says %d", len(got), want)
	}
}

func TestTreeHeightLogarithmic(t *testing.T) {
	tr, _ := New(2, 8)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		_ = tr.Insert(Entry{Rect: Point(rng.Float64(), rng.Float64()), ID: uint64(i)})
	}
	h := height(tr)
	// With fan-out >= 2, height should be well below log2(n)+const; with
	// fan-out 8 expect <= ~7 for 2000 entries.
	if h > 10 {
		t.Errorf("height %d too large for 2000 entries", h)
	}
	if h < 2 {
		t.Errorf("height %d too small; splits never happened", h)
	}
}

func TestNearestMatchesLinearScan(t *testing.T) {
	tr, _ := New(0, 0)
	rng := rand.New(rand.NewSource(3))
	const n = 300
	type pt struct {
		x, y float64
		id   uint64
	}
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{rng.Float64() * 50, rng.Float64() * 50, uint64(i)}
		_ = tr.Insert(Entry{Rect: Point(pts[i].x, pts[i].y), ID: pts[i].id})
	}
	for trial := 0; trial < 10; trial++ {
		qx, qy := rng.Float64()*50, rng.Float64()*50
		const k = 5
		got := tr.Nearest(qx, qy, k)
		if len(got) != k {
			t.Fatalf("Nearest returned %d, want %d", len(got), k)
		}
		dists := make([]float64, n)
		for i, p := range pts {
			dists[i] = math.Hypot(p.x-qx, p.y-qy)
		}
		sort.Float64s(dists)
		for i, e := range got {
			d := math.Hypot((e.Rect.MinX+e.Rect.MaxX)/2-qx, (e.Rect.MinY+e.Rect.MaxY)/2-qy)
			if math.Abs(d-dists[i]) > 1e-9 {
				t.Fatalf("trial %d: k-NN rank %d distance %v, linear scan %v", trial, i, d, dists[i])
			}
		}
	}
}

func TestNearestEdgeCases(t *testing.T) {
	tr, _ := New(0, 0)
	if got := tr.Nearest(0, 0, 3); got != nil {
		t.Error("empty tree Nearest should be nil")
	}
	_ = tr.Insert(Entry{Rect: Point(1, 1), ID: 7})
	if got := tr.Nearest(0, 0, 0); got != nil {
		t.Error("k=0 should be nil")
	}
	got := tr.Nearest(0, 0, 10)
	if len(got) != 1 || got[0].ID != 7 {
		t.Errorf("Nearest = %+v", got)
	}
}

func TestProbeCountGrows(t *testing.T) {
	tr, _ := New(0, 0)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		_ = tr.Insert(Entry{Rect: Point(rng.Float64(), rng.Float64()), ID: uint64(i)})
	}
	before := tr.ProbeCount
	tr.Search(Rect{0, 0, 1, 1})
	if tr.ProbeCount <= before {
		t.Error("ProbeCount did not grow with a search")
	}
}

func TestDuplicatePointsSupported(t *testing.T) {
	tr, _ := New(0, 0)
	for i := 0; i < 50; i++ {
		if err := tr.Insert(Entry{Rect: Point(1, 1), ID: uint64(i)}); err != nil {
			t.Fatalf("duplicate point insert %d: %v", i, err)
		}
	}
	got := tr.Search(Point(1, 1))
	if len(got) != 50 {
		t.Errorf("search returned %d duplicates, want 50", len(got))
	}
}
