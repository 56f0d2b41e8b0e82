// Package lsi implements Latent Semantic Indexing (Deerwester et al.,
// JASIS'90) — the semantic-aggregation tool of SmartStore (Hua et al.,
// SC'09), which the paper's Table I lines up against FAST's LSH-based
// clustering. Documents (or file records) are represented as feature
// vectors; LSI projects them onto the top-k eigenvectors of the corpus
// covariance (equivalently, the dominant left singular subspace), and
// correlation queries run as cosine similarity in the concept space.
//
// The executable Table I comparison uses this package to contrast
// SmartStore-style aggregation (O(n·d·k) batch factorization, O(n) query
// scan in concept space) with FAST's O(1) LSH grouping over the same
// vectorized records.
package lsi

import (
	"errors"
	"fmt"
	"sort"

	"github.com/fastrepro/fast/internal/linalg"
)

// Index is a fitted LSI model plus the projected corpus.
type Index struct {
	pca  *linalg.PCA // covariance eigenbasis = LSI concept space
	ids  []uint64
	docs []linalg.Vector // projected documents, unit-normalized
}

// Build factorizes the corpus into a k-dimensional concept space and
// projects every document into it. It returns an error when the corpus is
// too small or k is out of range.
func Build(ids []uint64, vectors [][]float64, k int) (*Index, error) {
	if len(ids) != len(vectors) {
		return nil, fmt.Errorf("lsi: %d ids but %d vectors", len(ids), len(vectors))
	}
	if len(vectors) < 2 {
		return nil, errors.New("lsi: need at least 2 documents")
	}
	samples := make([]linalg.Vector, len(vectors))
	for i, v := range vectors {
		samples[i] = linalg.Vector(v)
	}
	pca, err := linalg.FitPCA(samples, k)
	if err != nil {
		return nil, fmt.Errorf("lsi: factorization: %w", err)
	}
	idx := &Index{pca: pca, ids: append([]uint64(nil), ids...)}
	idx.docs = make([]linalg.Vector, len(samples))
	for i, s := range samples {
		p, err := pca.Project(s)
		if err != nil {
			return nil, err
		}
		p.Normalize()
		idx.docs[i] = p
	}
	return idx, nil
}

// Result is one correlation hit.
type Result struct {
	ID     uint64
	Cosine float64
}

// Query projects the vector into concept space and returns the topK most
// cosine-similar documents, best first. Cost is a full scan of the
// projected corpus — the O(n) SmartStore query model that the Table I
// experiment contrasts with FAST's O(1) bucket probe.
func (ix *Index) Query(vector []float64, topK int) ([]Result, error) {
	if topK <= 0 {
		return nil, fmt.Errorf("lsi: topK must be positive, got %d", topK)
	}
	p, err := ix.pca.Project(linalg.Vector(vector))
	if err != nil {
		return nil, err
	}
	p.Normalize()
	out := make([]Result, 0, len(ix.docs))
	for i, d := range ix.docs {
		out = append(out, Result{ID: ix.ids[i], Cosine: p.Dot(d)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cosine != out[j].Cosine {
			return out[i].Cosine > out[j].Cosine
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out, nil
}
