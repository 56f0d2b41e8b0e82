// Package kdtree implements a k-d tree over multi-dimensional points — the
// metadata index underlying Spyglass (Leung et al., FAST'09), which the
// paper's Table I contrasts with FAST's modules: Spyglass maps the
// namespace hierarchy into a K-D tree and answers queries by hierarchical
// addressing (tree descent), where FAST uses flat-structured O(1)
// addressing. The executable Table I comparison in the experiments harness
// drives this package with vectorized file records.
package kdtree

import (
	"fmt"
	"math"
	"sort"
)

// Point is one indexed item: a position plus a caller ID.
type Point struct {
	Vec []float64
	ID  uint64
}

type node struct {
	point       Point
	axis        int
	left, right *node
}

// Tree is a static, median-balanced k-d tree.
type Tree struct {
	root *node
	dim  int
	// Visited counts nodes touched by searches — the hierarchical-
	// addressing cost Table I contrasts with FAST's constant probes.
	Visited int
}

// Build constructs a balanced tree from the points (the slice is
// reordered). All points must share one dimensionality.
func Build(points []Point) (*Tree, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("kdtree: no points")
	}
	dim := len(points[0].Vec)
	if dim == 0 {
		return nil, fmt.Errorf("kdtree: zero-dimensional points")
	}
	for i, p := range points {
		if len(p.Vec) != dim {
			return nil, fmt.Errorf("kdtree: point %d has dimension %d, want %d", i, len(p.Vec), dim)
		}
	}
	t := &Tree{dim: dim}
	t.root = build(points, 0, dim)
	return t, nil
}

func build(pts []Point, depth, dim int) *node {
	if len(pts) == 0 {
		return nil
	}
	axis := depth % dim
	sort.Slice(pts, func(i, j int) bool { return pts[i].Vec[axis] < pts[j].Vec[axis] })
	mid := len(pts) / 2
	return &node{
		point: pts[mid],
		axis:  axis,
		left:  build(pts[:mid], depth+1, dim),
		right: build(pts[mid+1:], depth+1, dim),
	}
}

// Neighbor is a kNN result.
type Neighbor struct {
	Point Point
	Dist  float64
}

// Nearest returns the k nearest points to q by Euclidean distance, nearest
// first. It returns an error on dimension mismatch.
func (t *Tree) Nearest(q []float64, k int) ([]Neighbor, error) {
	if len(q) != t.dim {
		return nil, fmt.Errorf("kdtree: query dimension %d, want %d", len(q), t.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("kdtree: k must be positive, got %d", k)
	}
	var best []Neighbor // sorted ascending by Dist, at most k entries
	var visit func(n *node)
	visit = func(n *node) {
		if n == nil {
			return
		}
		t.Visited++
		d := dist(q, n.point.Vec)
		if len(best) < k || d < best[len(best)-1].Dist {
			best = insertNeighbor(best, Neighbor{Point: n.point, Dist: d}, k)
		}
		diff := q[n.axis] - n.point.Vec[n.axis]
		near, far := n.left, n.right
		if diff > 0 {
			near, far = n.right, n.left
		}
		visit(near)
		// Prune the far side unless the splitting plane is closer than the
		// current k-th best.
		if len(best) < k || math.Abs(diff) < best[len(best)-1].Dist {
			visit(far)
		}
	}
	visit(t.root)
	return best, nil
}

func insertNeighbor(best []Neighbor, nb Neighbor, k int) []Neighbor {
	i := sort.Search(len(best), func(i int) bool { return best[i].Dist >= nb.Dist })
	best = append(best, Neighbor{})
	copy(best[i+1:], best[i:])
	best[i] = nb
	if len(best) > k {
		best = best[:k]
	}
	return best
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
