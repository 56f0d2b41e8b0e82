// Package rtree implements a 2-D Guttman R-tree (SIGMOD'84) with quadratic
// node splitting. It is the spatial substrate of the RNPE baseline
// (Liu et al., ICDE'13), which indexes geo-tagged photo "location views" in
// an R-tree and answers proximity queries in O(log n) — the complexity the
// paper contrasts with FAST's O(1) flat addressing.
package rtree

import (
	"fmt"
	"math"
	"sort"
)

// Rect is an axis-aligned rectangle (MinX <= MaxX, MinY <= MaxY).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Point returns a degenerate rectangle at (x, y).
func Point(x, y float64) Rect { return Rect{x, y, x, y} }

// Valid reports whether the rectangle is well formed.
func (r Rect) Valid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return (r.MaxX - r.MinX) * (r.MaxY - r.MinY) }

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Intersects reports whether r and s overlap (boundaries included).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// enlargement returns the area growth of r needed to cover s.
func (r Rect) enlargement(s Rect) float64 { return r.Union(s).Area() - r.Area() }

// centerDist returns the distance between rectangle centers.
func (r Rect) centerDist(s Rect) float64 {
	rx, ry := (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
	sx, sy := (s.MinX+s.MaxX)/2, (s.MinY+s.MaxY)/2
	return math.Hypot(rx-sx, ry-sy)
}

// Entry is a stored item: a rectangle (often a point) plus a caller ID.
type Entry struct {
	Rect Rect
	ID   uint64
}

type node struct {
	leaf     bool
	rect     Rect
	entries  []Entry // leaf payload
	children []*node // internal children
}

// Tree is a Guttman R-tree.
type Tree struct {
	root       *node
	minEntries int
	maxEntries int
	size       int
	// ProbeCount accumulates the number of nodes visited by searches; the
	// evaluation uses it to charge RNPE its O(log n) traversal cost.
	ProbeCount int
}

// New creates an R-tree with the given node fan-out bounds. min 0 and max 0
// select the common (2, 8) configuration. It returns an error for invalid
// bounds.
func New(minEntries, maxEntries int) (*Tree, error) {
	if minEntries == 0 && maxEntries == 0 {
		minEntries, maxEntries = 2, 8
	}
	if minEntries < 1 || maxEntries < 2*minEntries {
		return nil, fmt.Errorf("rtree: invalid fan-out bounds (%d, %d); need max >= 2*min", minEntries, maxEntries)
	}
	return &Tree{
		root:       &node{leaf: true},
		minEntries: minEntries,
		maxEntries: maxEntries,
	}, nil
}

// Insert adds an entry. It returns an error for malformed rectangles.
func (t *Tree) Insert(e Entry) error {
	if !e.Rect.Valid() {
		return fmt.Errorf("rtree: invalid rect %+v", e.Rect)
	}
	leaf := t.chooseLeaf(t.root, e.Rect)
	leaf.entries = append(leaf.entries, e)
	leaf.rect = recomputeRect(leaf)
	t.size++
	t.adjustPath(e.Rect)
	if len(leaf.entries) > t.maxEntries {
		t.splitAndPropagate(leaf)
	}
	return nil
}

// chooseLeaf descends to the leaf requiring least enlargement.
func (t *Tree) chooseLeaf(n *node, r Rect) *node {
	for !n.leaf {
		best := n.children[0]
		bestGrow := best.rect.enlargement(r)
		for _, c := range n.children[1:] {
			g := c.rect.enlargement(r)
			if g < bestGrow || (g == bestGrow && c.rect.Area() < best.rect.Area()) {
				best, bestGrow = c, g
			}
		}
		n = best
	}
	return n
}

// adjustPath re-expands rectangles on the root-to-leaf path to cover r.
// For simplicity the whole path is recomputed from the root.
func (t *Tree) adjustPath(r Rect) {
	var fix func(n *node) Rect
	fix = func(n *node) Rect {
		if n.leaf {
			n.rect = recomputeRect(n)
			return n.rect
		}
		first := true
		for _, c := range n.children {
			cr := fix(c)
			if first {
				n.rect, first = cr, false
			} else {
				n.rect = n.rect.Union(cr)
			}
		}
		return n.rect
	}
	fix(t.root)
}

func recomputeRect(n *node) Rect {
	if n.leaf {
		if len(n.entries) == 0 {
			return Rect{}
		}
		r := n.entries[0].Rect
		for _, e := range n.entries[1:] {
			r = r.Union(e.Rect)
		}
		return r
	}
	if len(n.children) == 0 {
		return Rect{}
	}
	r := n.children[0].rect
	for _, c := range n.children[1:] {
		r = r.Union(c.rect)
	}
	return r
}

// splitAndPropagate splits an overfull node, walking up from the leaf by
// re-descending from the root (parent pointers are not stored).
func (t *Tree) splitAndPropagate(over *node) {
	a, b := t.splitNode(over)
	if over == t.root {
		t.root = &node{leaf: false, children: []*node{a, b}}
		t.root.rect = a.rect.Union(b.rect)
		return
	}
	parent := t.findParent(t.root, over)
	// Replace over with a, add b.
	for i, c := range parent.children {
		if c == over {
			parent.children[i] = a
			break
		}
	}
	parent.children = append(parent.children, b)
	parent.rect = recomputeRect(parent)
	if len(parent.children) > t.maxEntries {
		t.splitAndPropagate(parent)
	}
}

func (t *Tree) findParent(cur, target *node) *node {
	if cur.leaf {
		return nil
	}
	for _, c := range cur.children {
		if c == target {
			return cur
		}
	}
	for _, c := range cur.children {
		if p := t.findParent(c, target); p != nil {
			return p
		}
	}
	return nil
}

// splitNode applies Guttman's quadratic split.
func (t *Tree) splitNode(n *node) (*node, *node) {
	if n.leaf {
		ga, gb := quadraticSplitRects(entryRects(n.entries), t.minEntries)
		a := &node{leaf: true}
		b := &node{leaf: true}
		for _, i := range ga {
			a.entries = append(a.entries, n.entries[i])
		}
		for _, i := range gb {
			b.entries = append(b.entries, n.entries[i])
		}
		a.rect, b.rect = recomputeRect(a), recomputeRect(b)
		return a, b
	}
	ga, gb := quadraticSplitRects(childRects(n.children), t.minEntries)
	a := &node{leaf: false}
	b := &node{leaf: false}
	for _, i := range ga {
		a.children = append(a.children, n.children[i])
	}
	for _, i := range gb {
		b.children = append(b.children, n.children[i])
	}
	a.rect, b.rect = recomputeRect(a), recomputeRect(b)
	return a, b
}

func entryRects(es []Entry) []Rect {
	rs := make([]Rect, len(es))
	for i, e := range es {
		rs[i] = e.Rect
	}
	return rs
}

func childRects(cs []*node) []Rect {
	rs := make([]Rect, len(cs))
	for i, c := range cs {
		rs[i] = c.rect
	}
	return rs
}

// quadraticSplitRects partitions indices of rects into two groups using
// Guttman's quadratic seeds + greedy assignment, respecting minEntries.
func quadraticSplitRects(rects []Rect, minEntries int) (groupA, groupB []int) {
	// Pick seeds: the pair wasting the most area if grouped.
	seedA, seedB, worst := 0, 1, math.Inf(-1)
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			waste := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	groupA = []int{seedA}
	groupB = []int{seedB}
	rectA, rectB := rects[seedA], rects[seedB]
	remaining := make([]int, 0, len(rects)-2)
	for i := range rects {
		if i != seedA && i != seedB {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		// Respect minimum fill.
		if len(groupA)+len(remaining) == minEntries {
			groupA = append(groupA, remaining...)
			for _, i := range remaining {
				rectA = rectA.Union(rects[i])
			}
			break
		}
		if len(groupB)+len(remaining) == minEntries {
			groupB = append(groupB, remaining...)
			for _, i := range remaining {
				rectB = rectB.Union(rects[i])
			}
			break
		}
		// Pick the entry with the greatest preference difference.
		bestIdx, bestDiff := 0, math.Inf(-1)
		for ri, i := range remaining {
			dA := rectA.enlargement(rects[i])
			dB := rectB.enlargement(rects[i])
			diff := math.Abs(dA - dB)
			if diff > bestDiff {
				bestDiff, bestIdx = diff, ri
			}
		}
		i := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		dA := rectA.enlargement(rects[i])
		dB := rectB.enlargement(rects[i])
		if dA < dB || (dA == dB && len(groupA) <= len(groupB)) {
			groupA = append(groupA, i)
			rectA = rectA.Union(rects[i])
		} else {
			groupB = append(groupB, i)
			rectB = rectB.Union(rects[i])
		}
	}
	return groupA, groupB
}

// Search returns all entries whose rectangles intersect q.
func (t *Tree) Search(q Rect) []Entry {
	var out []Entry
	t.search(t.root, q, &out)
	return out
}

func (t *Tree) search(n *node, q Rect, out *[]Entry) {
	t.ProbeCount++
	if n.leaf {
		for _, e := range n.entries {
			if e.Rect.Intersects(q) {
				*out = append(*out, e)
			}
		}
		return
	}
	for _, c := range n.children {
		if c.rect.Intersects(q) {
			t.search(c, q, out)
		}
	}
}

// Nearest returns up to k entries closest (center distance) to point
// (x, y), ordered nearest first. It uses best-first traversal.
func (t *Tree) Nearest(x, y float64, k int) []Entry {
	if k <= 0 || t.size == 0 {
		return nil
	}
	q := Point(x, y)
	type cand struct {
		e    Entry
		dist float64
	}
	var cands []cand
	// Simple exhaustive best-first via recursion with pruning against the
	// current k-th best distance.
	var kth = math.Inf(1)
	var visit func(n *node)
	visit = func(n *node) {
		t.ProbeCount++
		if n.leaf {
			for _, e := range n.entries {
				d := e.Rect.centerDist(q)
				if d < kth || len(cands) < k {
					cands = append(cands, cand{e, d})
					sort.Slice(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
					if len(cands) > k {
						cands = cands[:k]
					}
					if len(cands) == k {
						kth = cands[k-1].dist
					}
				}
			}
			return
		}
		// Visit children ordered by minimum distance to q.
		order := make([]*node, len(n.children))
		copy(order, n.children)
		sort.Slice(order, func(i, j int) bool {
			return minDist(order[i].rect, x, y) < minDist(order[j].rect, x, y)
		})
		for _, c := range order {
			if minDist(c.rect, x, y) <= kth || len(cands) < k {
				visit(c)
			}
		}
	}
	visit(t.root)
	out := make([]Entry, len(cands))
	for i, c := range cands {
		out[i] = c.e
	}
	return out
}

// minDist returns the minimum distance from (x, y) to rectangle r.
func minDist(r Rect, x, y float64) float64 {
	dx := math.Max(0, math.Max(r.MinX-x, x-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-y, y-r.MaxY))
	return math.Hypot(dx, dy)
}
