package cache

import (
	"math"
	"math/bits"
)

// 128-bit content fingerprints. Cache keys must be cheap relative to the
// work they memoize (FE+SM is milliseconds per probe; hashing a 64x64
// raster is microseconds) and collision-safe enough to address content
// directly: at 128 bits, birthday collisions need ~2^64 distinct rasters,
// so the fingerprint IS the identity — no bucket verification pass.
//
// The construction runs two independent 64-bit lanes over the input words
// (multiply-xor mixing with distinct odd constants, one lane seeing each
// word rotated so the lanes never degenerate into each other) and
// avalanches both with the SplitMix64 finalizer. It is not cryptographic;
// it is a content address for trusted-process memoization.

// Key is a 128-bit content fingerprint used as a cache key.
type Key struct {
	Hi, Lo uint64
}

const (
	seedLo = 0x9e3779b97f4a7c15 // golden-ratio odd constant
	seedHi = 0xc2b2ae3d27d4eb4f
	multLo = 0xff51afd7ed558ccd // MurmurHash3 finalizer constants
	multHi = 0xc4ceb9fe1a85ec53
)

// avalanche is the SplitMix64 finalizer: full-width diffusion of one word.
func avalanche(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hasher accumulates words into the two lanes.
type hasher struct {
	lo, hi uint64
}

func newHasher() hasher { return hasher{lo: seedLo, hi: seedHi} }

func (h *hasher) word(w uint64) {
	h.lo = (h.lo ^ w) * multLo
	h.lo ^= h.lo >> 29
	h.hi = (h.hi ^ bits.RotateLeft64(w, 31)) * multHi
	h.hi ^= h.hi >> 29
}

func (h *hasher) key() Key {
	// Cross the lanes before finalizing so each output word depends on
	// every input word through both accumulators.
	return Key{
		Hi: avalanche(h.hi + 0xb492b66fbe98f273*h.lo),
		Lo: avalanche(h.lo + 0x9ae16a3b2f90404f*h.hi),
	}
}

// ImageKey fingerprints a raster: dimensions plus the exact pixel bits.
// Two images receive the same key iff (modulo 2^-128 collisions) they are
// bit-identical, which is exactly the granularity at which a probe summary
// can be reused.
func ImageKey(w, h int, pix []float64) Key {
	hs := newHasher()
	hs.word(uint64(w))
	hs.word(uint64(h))
	for _, p := range pix {
		hs.word(math.Float64bits(p))
	}
	return hs.key()
}

// SummaryKey fingerprints a sparse Bloom summary: geometry plus the sorted
// set-bit positions, packed two per word.
func SummaryKey(m uint32, k int, setBits []uint32) Key {
	hs := newHasher()
	hs.word(uint64(m)<<32 | uint64(uint32(k)))
	hs.word(uint64(len(setBits)))
	for i := 0; i+1 < len(setBits); i += 2 {
		hs.word(uint64(setBits[i])<<32 | uint64(setBits[i+1]))
	}
	if len(setBits)%2 == 1 {
		hs.word(uint64(setBits[len(setBits)-1]))
	}
	return hs.key()
}

// Derive mixes additional words (a topK budget, an engine epoch) into an
// existing fingerprint, producing an independent key: entries derived from
// the same content under different parameters never alias.
func (k Key) Derive(words ...uint64) Key {
	hs := hasher{lo: k.Lo ^ seedLo, hi: k.Hi ^ seedHi}
	for _, w := range words {
		hs.word(w)
	}
	return hs.key()
}
