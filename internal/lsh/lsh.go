// Package lsh implements the Semantic Aggregation (SA) module of FAST:
// p-stable locality-sensitive hashing (Datar et al., SoCG'04) over the
// Bloom-filter bit vectors produced by the Summarization module.
//
// Each hash function is h_{a,b}(v) = floor((a·v + b) / ω) with a drawn from
// a 2-stable (Gaussian) distribution and b uniform in [0, ω). A table keys
// items by the concatenation g(v) = (h_1(v), ..., h_M(v)), and L independent
// tables widen the gap between the collision probabilities P1 (near) and P2
// (far) from Definition 1 of the paper. The paper's parameters are L=7,
// M=10, ω=0.85.
//
// Because false negatives hurt query accuracy more than false positives
// (Section III-C2), Query can additionally probe the buckets adjacent to the
// query's bucket in each table (Params.Probes) — the multi-probe of adjacent
// buckets the paper adopts from Lv et al. (VLDB'07).
//
// The FAST engine does not use this family: it indexes summaries with the
// Jaccard-space MinHash family (see MinHash for why). The p-stable Index,
// with and without multi-probe, runs in the ablation that compares the two
// families on the engine's real summaries.
package lsh

import (
	"fmt"
	"math"
	"math/rand"
)

// ItemID identifies an indexed item (an image in the use case).
type ItemID uint64

// Params configures an LSH index.
type Params struct {
	Dim    int     // input vector dimensionality
	L      int     // number of hash tables; 0 means 7 (paper)
	M      int     // hash functions per table; 0 means 10 (paper)
	Omega  float64 // bucket width ω; 0 means 0.85 (paper)
	Seed   int64   // RNG seed for the hash family
	Probes int     // leading signature coordinates probed at ±1 per table (multi-probe); 0 disables
}

func (p Params) withDefaults() Params {
	if p.L == 0 {
		p.L = 7
	}
	if p.M == 0 {
		p.M = 10
	}
	if p.Omega == 0 {
		p.Omega = 0.85
	}
	return p
}

// hashFunc is a single p-stable hash h_{a,b}.
type hashFunc struct {
	a []float64
	b float64
}

func (h *hashFunc) eval(v []float64, omega float64) int64 {
	var dot float64
	for i, x := range v {
		dot += h.a[i] * x
	}
	return int64(math.Floor((dot + h.b) / omega))
}

// table is one LSH hash table.
type table struct {
	funcs   []hashFunc
	buckets map[uint64][]ItemID
}

// Index is an L-table p-stable LSH index.
type Index struct {
	params Params
	tables []*table
}

// New constructs an LSH index. It returns an error for invalid dimensions.
func New(params Params) (*Index, error) {
	params = params.withDefaults()
	if params.Dim <= 0 {
		return nil, fmt.Errorf("lsh: dimension must be positive, got %d", params.Dim)
	}
	if params.L < 1 || params.M < 1 || params.Omega <= 0 {
		return nil, fmt.Errorf("lsh: invalid params %+v", params)
	}
	rng := rand.New(rand.NewSource(params.Seed))
	idx := &Index{params: params}
	for t := 0; t < params.L; t++ {
		tb := &table{buckets: make(map[uint64][]ItemID)}
		for m := 0; m < params.M; m++ {
			a := make([]float64, params.Dim)
			for i := range a {
				a[i] = rng.NormFloat64() // 2-stable for the l2 norm
			}
			tb.funcs = append(tb.funcs, hashFunc{a: a, b: rng.Float64() * params.Omega})
		}
		idx.tables = append(idx.tables, tb)
	}
	return idx, nil
}

// signature computes the M-coordinate bucket signature of v in table t.
func (tb *table) signature(v []float64, omega float64) []int64 {
	sig := make([]int64, len(tb.funcs))
	for i := range tb.funcs {
		sig[i] = tb.funcs[i].eval(v, omega)
	}
	return sig
}

// keyOf hashes a signature into a 64-bit bucket key (FNV-1a over the
// coordinates).
func keyOf(sig []int64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, s := range sig {
		u := uint64(s)
		for shift := 0; shift < 64; shift += 8 {
			h ^= (u >> shift) & 0xff
			h *= prime
		}
	}
	return h
}

// Insert adds item id with vector v to all L tables. It returns an error on
// dimension mismatch.
func (idx *Index) Insert(id ItemID, v []float64) error {
	if len(v) != idx.params.Dim {
		return fmt.Errorf("lsh: vector dimension %d, want %d", len(v), idx.params.Dim)
	}
	for _, tb := range idx.tables {
		k := keyOf(tb.signature(v, idx.params.Omega))
		tb.buckets[k] = append(tb.buckets[k], id)
	}
	return nil
}

// Query returns the distinct candidate IDs that share a bucket with v in any
// table. When Params.Probes > 0 it additionally probes the buckets whose
// signature differs by ±1 in single coordinates (the "adjacent buckets" the
// paper groups to cut false negatives), up to Probes coordinates per table.
func (idx *Index) Query(v []float64) ([]ItemID, error) {
	if len(v) != idx.params.Dim {
		return nil, fmt.Errorf("lsh: vector dimension %d, want %d", len(v), idx.params.Dim)
	}
	seen := make(map[ItemID]struct{})
	var out []ItemID
	collect := func(tb *table, key uint64) {
		for _, id := range tb.buckets[key] {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	for _, tb := range idx.tables {
		sig := tb.signature(v, idx.params.Omega)
		collect(tb, keyOf(sig))
		probes := idx.params.Probes
		if probes > len(sig) {
			probes = len(sig)
		}
		for c := 0; c < probes; c++ {
			orig := sig[c]
			sig[c] = orig + 1
			collect(tb, keyOf(sig))
			sig[c] = orig - 1
			collect(tb, keyOf(sig))
			sig[c] = orig
		}
	}
	return out, nil
}

// BucketStats summarizes bucket occupancy for load-balance analysis (the
// paper's motivation for moving from vertical addressing to flat cuckoo
// storage is exactly the variable bucket lengths reported here).
type BucketStats struct {
	Buckets   int
	MaxLen    int
	MeanLen   float64
	TotalRefs int
}
