package linalg

import (
	"errors"
	"fmt"
)

// PCA is a fitted principal-components projection: it maps input vectors of
// dimension InputDim onto the top OutputDim principal components of the
// training sample. This is the dimensionality-reduction step of PCA-SIFT.
type PCA struct {
	InputDim  int
	OutputDim int
	Mean      Vector  // training-sample mean, length InputDim
	Basis     *Matrix // OutputDim x InputDim; rows are principal axes
	Explained Vector  // fraction of variance captured per component
}

// FitPCA learns a PCA projection from training samples down to outDim
// dimensions. It returns an error if there are fewer than two samples or
// outDim is out of range.
func FitPCA(samples []Vector, outDim int) (*PCA, error) {
	if len(samples) < 2 {
		return nil, errors.New("linalg: FitPCA requires at least 2 samples")
	}
	inDim := len(samples[0])
	if outDim <= 0 || outDim > inDim {
		return nil, fmt.Errorf("linalg: output dimension %d out of range (1..%d)", outDim, inDim)
	}
	cov, mean, err := Covariance(samples)
	if err != nil {
		return nil, err
	}
	vals, vecs, err := EigenSym(cov)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range vals {
		if v > 0 {
			total += v
		}
	}
	basis := NewMatrix(outDim, inDim)
	explained := NewVector(outDim)
	for c := 0; c < outDim; c++ {
		for r := 0; r < inDim; r++ {
			basis.Set(c, r, vecs.At(r, c))
		}
		if total > 0 && vals[c] > 0 {
			explained[c] = vals[c] / total
		}
	}
	return &PCA{
		InputDim:  inDim,
		OutputDim: outDim,
		Mean:      mean,
		Basis:     basis,
		Explained: explained,
	}, nil
}

// Project maps v onto the principal components. It returns an error if the
// input dimension does not match the fitted projection.
func (p *PCA) Project(v Vector) (Vector, error) {
	out := NewVector(p.OutputDim)
	if err := p.ProjectInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// ProjectInto projects v onto the principal components, writing the result
// into dst (length OutputDim). It allocates nothing: the mean-centering that
// Project materializes as a temporary vector is folded into the
// basis-row dot products, which keeps per-descriptor projection off the
// allocator on the hot feature-extraction path.
func (p *PCA) ProjectInto(dst, v Vector) error {
	if len(v) != p.InputDim {
		return fmt.Errorf("linalg: project dimension %d, want %d", len(v), p.InputDim)
	}
	if len(dst) != p.OutputDim {
		return fmt.Errorf("linalg: projection target dimension %d, want %d", len(dst), p.OutputDim)
	}
	cols := p.Basis.Cols
	for r := 0; r < p.OutputDim; r++ {
		row := p.Basis.Data[r*cols : (r+1)*cols]
		var s float64
		for c, x := range v {
			s += row[c] * (x - p.Mean[c])
		}
		dst[r] = s
	}
	return nil
}

// TotalExplained returns the total fraction of variance captured by the
// retained components.
func (p *PCA) TotalExplained() float64 {
	var s float64
	for _, e := range p.Explained {
		s += e
	}
	return s
}
