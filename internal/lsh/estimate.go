package lsh

import (
	"errors"
	"math"
	"sort"
)

// EstimateR picks a radius R for LSH construction by sampling pairwise
// nearest-neighbor distances in the dataset: it returns the given quantile
// (e.g. 0.5 for the median) of each sample point's nearest-neighbor
// distance to the rest of the sample. This mirrors the well-recognized
// sampling method the paper cites: R should be roughly the distance
// between a query point and its nearest neighbors.
func EstimateR(sample [][]float64, quantile float64) (float64, error) {
	if len(sample) < 2 {
		return 0, errors.New("lsh: EstimateR needs at least 2 samples")
	}
	if quantile <= 0 || quantile > 1 {
		return 0, errors.New("lsh: quantile must be in (0, 1]")
	}
	nn := make([]float64, 0, len(sample))
	for i, p := range sample {
		best := math.Inf(1)
		for j, q := range sample {
			if i == j || len(p) != len(q) {
				continue
			}
			var d float64
			for k := range p {
				diff := p[k] - q[k]
				d += diff * diff
			}
			if d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			nn = append(nn, math.Sqrt(best))
		}
	}
	if len(nn) == 0 {
		return 0, errors.New("lsh: no comparable samples")
	}
	sort.Float64s(nn)
	idx := int(quantile*float64(len(nn))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(nn) {
		idx = len(nn) - 1
	}
	return nn[idx], nil
}
