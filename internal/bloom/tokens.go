package bloom

import "math"

// AppendSubVectorTokens converts a descriptor vector into a set of feature
// tokens using product-quantization-style sub-vectors, appended to dst: the
// vector is split into groups of sub consecutive components, each group is
// quantized at the given granularity, and each quantized group is hashed
// into one token tagged with its group index. Callers that summarize many
// descriptors reuse one token buffer (dst[:0]) across calls instead of
// allocating per descriptor.
//
// Compared with hashing the whole vector at once, sub-vector tokens are far
// more robust to perturbation: a single borderline component only
// invalidates its own group's token, so two descriptors that agree on most
// components still share most tokens. All-zero groups are suppressed (see
// below). Calibration on the synthetic corpus (sub=16, granularity=0.5,
// SIFT descriptors, mild perturbation) gives same-scene summaries an
// average Jaccard similarity of ~0.44 versus ~0.10 across scenes — the
// separation the Summarization module relies on.
func AppendSubVectorTokens(dst []uint64, v []float64, sub int, granularity float64) []uint64 {
	if sub <= 0 {
		sub = 16
	}
	if granularity <= 0 {
		granularity = 0.5
	}
	groups := (len(v) + sub - 1) / sub
	out := dst
	// The quantized-group scratch lives on the stack at the default
	// sub-vector width; oversized configurations fall back to the heap.
	var arr [72]byte
	buf := arr[:0]
	if sub+2 > len(arr) {
		buf = make([]byte, 0, sub+2)
	}
	for g := 0; g < groups; g++ {
		buf = buf[:0]
		buf = append(buf, byte(g), byte(g>>8))
		informative := false
		for i := g * sub; i < (g+1)*sub && i < len(v); i++ {
			q := int8(math.Round(v[i] / granularity))
			if q != 0 {
				informative = true
			}
			buf = append(buf, byte(q))
		}
		// All-zero groups are "stopword" tokens shared by almost every
		// descriptor; emitting them would inflate the similarity of
		// unrelated images, so they are skipped.
		if informative {
			out = append(out, fnv64(buf))
		}
	}
	return out
}

// AddTokens inserts every token into the filter.
func (f *Filter) AddTokens(tokens []uint64) {
	for _, t := range tokens {
		f.Add(t)
	}
}

// SummaryConfig is the canonical summary geometry used by the FAST pipeline
// and the smartphone-side dedup detector.
type SummaryConfig struct {
	Bits        uint32  // filter size; 0 means 8192
	K           int     // hash functions; 0 means 4 (paper uses k=8 at cloud scale)
	SubVector   int     // sub-vector width for tokens; 0 means 16
	Granularity float64 // quantization step; 0 means 0.5
}

// WithDefaults fills zero fields with calibrated defaults.
func (c SummaryConfig) WithDefaults() SummaryConfig {
	if c.Bits == 0 {
		c.Bits = 8192
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.SubVector == 0 {
		c.SubVector = 16
	}
	if c.Granularity == 0 {
		c.Granularity = 0.5
	}
	return c
}

// Summarize builds the Bloom summary of a descriptor set under the given
// configuration. It is generic over the descriptor's float64-slice type so
// callers holding []linalg.Vector (or any other named []float64) feed it
// directly instead of reallocating a [][]float64 view.
func Summarize[V ~[]float64](descriptors []V, cfg SummaryConfig) (*Filter, error) {
	cfg = cfg.WithDefaults()
	f, err := New(cfg.Bits, cfg.K)
	if err != nil {
		return nil, err
	}
	var tokens []uint64
	for _, d := range descriptors {
		tokens = AppendSubVectorTokens(tokens[:0], []float64(d), cfg.SubVector, cfg.Granularity)
		f.AddTokens(tokens)
	}
	return f, nil
}
