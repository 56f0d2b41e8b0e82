// Package chunk implements content-defined chunking with rolling-hash
// boundaries plus chunk fingerprinting. It is the substrate of
// the "chunk-based transmission scheme" that Figure 8 compares FAST
// against: the baseline uploads every image as deduplicated chunks, so its
// savings come only from byte-identical regions, whereas FAST's
// near-duplicate detection skips whole similar images.
package chunk

import (
	"fmt"
)

// Chunk is one piece of a byte stream.
type Chunk struct {
	Offset int
	Data   []byte
	FP     uint64 // fingerprint (FNV-1a of the content)
}

// Fingerprint hashes content with FNV-1a 64.
func Fingerprint(p []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// CDCConfig configures content-defined chunking.
type CDCConfig struct {
	Min, Avg, Max int // chunk size bounds; Avg must be a power of two
	Window        int // rolling window; 0 means 48
}

func (c CDCConfig) withDefaults() (CDCConfig, error) {
	if c.Min == 0 && c.Avg == 0 && c.Max == 0 {
		c = CDCConfig{Min: 2048, Avg: 8192, Max: 65536}
	}
	if c.Window == 0 {
		c.Window = 48
	}
	if c.Min <= 0 || c.Avg < c.Min || c.Max < c.Avg {
		return c, fmt.Errorf("chunk: invalid bounds min=%d avg=%d max=%d", c.Min, c.Avg, c.Max)
	}
	if c.Avg&(c.Avg-1) != 0 {
		return c, fmt.Errorf("chunk: avg %d must be a power of two", c.Avg)
	}
	return c, nil
}

// CDC splits data at content-defined boundaries using a polynomial rolling
// hash (Rabin-style): a boundary is declared where the rolling hash's low
// bits are all zero (mask = avg-1), subject to the min/max bounds. Identical
// content regions therefore produce identical chunks regardless of their
// offset, which is the property deduplication relies on.
func CDC(data []byte, cfg CDCConfig) ([]Chunk, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	mask := uint64(cfg.Avg - 1)
	var out []Chunk
	start := 0
	const prime = 31
	// Precompute prime^(window-1) for the rolling update.
	pow := uint64(1)
	for i := 0; i < cfg.Window-1; i++ {
		pow *= prime
	}
	var h uint64
	for i := 0; i < len(data); i++ {
		// Update rolling hash over the trailing window.
		if i-start < cfg.Window {
			h = h*prime + uint64(data[i])
		} else {
			h = (h-uint64(data[i-cfg.Window])*pow)*prime + uint64(data[i])
		}
		n := i - start + 1
		if (n >= cfg.Min && h&mask == mask) || n >= cfg.Max {
			c := Chunk{Offset: start, Data: data[start : i+1]}
			c.FP = Fingerprint(c.Data)
			out = append(out, c)
			start = i + 1
			h = 0
		}
	}
	if start < len(data) {
		c := Chunk{Offset: start, Data: data[start:]}
		c.FP = Fingerprint(c.Data)
		out = append(out, c)
	}
	return out, nil
}

// Index is a fingerprint set used for chunk-level deduplication.
type Index struct {
	seen map[uint64]int // fingerprint -> chunk length
}

// NewIndex returns an empty chunk index.
func NewIndex() *Index { return &Index{seen: make(map[uint64]int)} }

// DedupResult summarizes a deduplicated transfer.
type DedupResult struct {
	TotalChunks int
	NewChunks   int
	TotalBytes  int64
	NewBytes    int64 // bytes that actually need transmission
	DupBytes    int64 // bytes suppressed by the index
}

// Add deduplicates the chunks against the index, inserting new fingerprints
// and returning the transfer summary.
func (ix *Index) Add(chunks []Chunk) DedupResult {
	var r DedupResult
	for _, c := range chunks {
		r.TotalChunks++
		r.TotalBytes += int64(len(c.Data))
		if _, dup := ix.seen[c.FP]; dup {
			r.DupBytes += int64(len(c.Data))
			continue
		}
		ix.seen[c.FP] = len(c.Data)
		r.NewChunks++
		r.NewBytes += int64(len(c.Data))
	}
	return r
}
