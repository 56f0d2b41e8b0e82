// Package bloom implements the Summarization (SM) module of FAST: per-image
// Bloom filters that hash a set of feature vectors into a fixed-size bit
// array. Two similar images share many identical (quantized) features, so
// their Bloom filters share many identical bits; the Hamming distance
// between filters is therefore a cheap proxy for image similarity, and the
// bit vectors are the inputs to the LSH Semantic Aggregation module.
//
// The package provides both a dense Filter and the paper's sparse
// "only store the non-zero bits" representation (Section III-C1 reports a
// 200KB -> 40B per-image reduction using that trick).
package bloom

import (
	"fmt"
	"math/bits"
)

// Filter is a Bloom filter over uint64-encoded items with k independent
// hash functions derived by double hashing (Kirsch-Mitzenmacher).
type Filter struct {
	m    uint32 // number of bits
	k    int    // number of hash functions
	bits []uint64
}

// New returns a Bloom filter with m bits and k hash functions.
// It returns an error for non-positive parameters.
func New(m uint32, k int) (*Filter, error) {
	if m == 0 || k <= 0 {
		return nil, fmt.Errorf("bloom: invalid parameters m=%d k=%d", m, k)
	}
	return &Filter{m: m, k: k, bits: make([]uint64, (m+63)/64)}, nil
}

// hash2 derives two independent 32-bit hashes of item via a 64-bit
// mix (SplitMix64 finalizer).
func hash2(item uint64) (uint32, uint32) {
	x := item
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x), uint32(x >> 32)
}

// bitFor returns the bit position of hash function i for item.
func (f *Filter) bitFor(item uint64, i int) uint32 {
	h1, h2 := hash2(item)
	return (h1 + uint32(i)*h2) % f.m
}

// Add inserts item into the filter.
func (f *Filter) Add(item uint64) {
	for i := 0; i < f.k; i++ {
		b := f.bitFor(item, i)
		f.bits[b/64] |= 1 << (b % 64)
	}
}

// Contains reports whether item may be in the filter (no false negatives;
// false positives at the configured rate).
func (f *Filter) Contains(item uint64) bool {
	for i := 0; i < f.k; i++ {
		b := f.bitFor(item, i)
		if f.bits[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits.
func (f *Filter) PopCount() int {
	var c int
	for _, w := range f.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// HammingDistance returns the number of differing bits between two filters
// of identical geometry. It returns an error on geometry mismatch.
func HammingDistance(a, b *Filter) (int, error) {
	if a.m != b.m || a.k != b.k {
		return 0, fmt.Errorf("bloom: geometry mismatch (m=%d,k=%d) vs (m=%d,k=%d)", a.m, a.k, b.m, b.k)
	}
	var d int
	for i := range a.bits {
		d += bits.OnesCount64(a.bits[i] ^ b.bits[i])
	}
	return d, nil
}

// Jaccard returns |A∩B| / |A∪B| over set bits; 1 for two empty filters.
func Jaccard(a, b *Filter) (float64, error) {
	if a.m != b.m {
		return 0, fmt.Errorf("bloom: geometry mismatch m=%d vs m=%d", a.m, b.m)
	}
	var inter, union int
	for i := range a.bits {
		inter += bits.OnesCount64(a.bits[i] & b.bits[i])
		union += bits.OnesCount64(a.bits[i] | b.bits[i])
	}
	if union == 0 {
		return 1, nil
	}
	return float64(inter) / float64(union), nil
}

// BitVector returns the filter's bits as a float64 vector (one component per
// bit, 0 or 1) — the multi-dimensional point representation fed to LSH.
func (f *Filter) BitVector() []float64 {
	v := make([]float64, f.m)
	for i := uint32(0); i < f.m; i++ {
		if f.bits[i/64]&(1<<(i%64)) != 0 {
			v[i] = 1
		}
	}
	return v
}

// SetBits returns the sorted positions of all set bits — the sparse
// representation the paper stores (only non-zero bits are maintained).
func (f *Filter) SetBits() []uint32 {
	out := make([]uint32, 0, f.PopCount())
	for wi, w := range f.bits {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, uint32(wi*64+b))
			w &= w - 1
		}
	}
	return out
}

// DenseSizeBytes returns the in-memory size of the dense bit array.
func (f *Filter) DenseSizeBytes() int { return len(f.bits) * 8 }

// fnv64 is the FNV-1a 64-bit hash.
func fnv64(p []byte) uint64 {
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
