package bloom

import "math/bits"

// Word-parallel summary scoring.
//
// The sparse representation (sorted set-bit positions) is what the index
// stores and ships — tens of bytes per photo. But scoring a candidate
// against a probe is a set-intersection problem, and the merge loop of
// JaccardSparse walks both position lists one element at a time. Packing the
// positions back into the filter's natural []uint64 words turns the same
// computation into a fused AND+popcount / OR+popcount pass: 64 bits per
// instruction, no branches, no intermediate allocation — the bitmap-index
// representation argued for by the bitmap-oriented survey line of work.
//
// AndOrCount computes exactly the |A∩B| and |A∪B| cardinalities that
// JaccardSparse computes from the position lists, so a Jaccard score built
// from packed words is bit-for-bit identical (same integer counts, same one
// float64 division) to the sparse merge.
//
// Only a probe needs its packed image: JaccardPackedSparse tests a stored
// summary's positions against it (the bitmap-probe form), so the hot index
// keeps each summary sparse. The cold tier stores and scores packed words.

// PackedWords returns the number of 64-bit words a filter of m bits packs
// into.
func PackedWords(m uint32) int { return int(m+63) / 64 }

// AppendPacked packs sorted set-bit positions into dense filter words,
// appending to dst (which is grown and zeroed as needed) and returning the
// packed slice of exactly PackedWords(m) words. Positions ≥ m are ignored;
// the engine validates geometry before any summary is stored, so none occur
// on the query path.
func AppendPacked(dst []uint64, m uint32, setBits []uint32) []uint64 {
	n := PackedWords(m)
	if cap(dst) < n {
		dst = make([]uint64, n)
	} else {
		dst = dst[:n]
		clear(dst)
	}
	for _, b := range setBits {
		if b >= m {
			continue
		}
		dst[b/64] |= 1 << (b % 64)
	}
	return dst
}

// Packed returns a freshly allocated packed-word form of the sparse summary.
func (s *Sparse) Packed() []uint64 { return AppendPacked(nil, s.M, s.Bits) }

// AppendBits appends the set-bit positions of the packed words to dst in
// ascending order and returns the extended slice — the inverse of
// AppendPacked. The cold tier stores only the packed form on disk; group
// expansion reconstructs a stored entry's sparse position list from it, and
// because packing is order-preserving the reconstruction is exactly the
// sorted Bits slice the summary was stored with.
func AppendBits(dst []uint32, words []uint64) []uint32 {
	for wi, w := range words {
		base := uint32(wi * 64)
		for w != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// AndOrCount returns popcount(a&b) and popcount(a|b) over two equal-length
// word slices — the intersection and union cardinalities of the underlying
// bit sets, computed 64 bits at a time. Callers guarantee len(a) == len(b)
// (both sides packed from the same filter geometry); mismatched lengths are
// truncated to the shorter side.
func AndOrCount(a, b []uint64) (inter, union int) {
	if len(b) < len(a) {
		a = a[:len(b)]
	} else {
		b = b[:len(a)]
	}
	for i, w := range a {
		inter += bits.OnesCount64(w & b[i])
		union += bits.OnesCount64(w | b[i])
	}
	return inter, union
}

// JaccardPackedSparse computes |A∩B|/|A∪B| for A given as packed words with
// na set bits and B as distinct set-bit positions: one bit test of A's
// words per position of B gives |A∩B|, and |A∪B| = na + |B| − |A∩B| — the
// integers AndOrCount computes, so for na = popcount(words) the score is
// JaccardPacked's and JaccardSparse's float64. Positions beyond the packed
// words are not in A. Two empty sets score 1.
func JaccardPackedSparse(words []uint64, na int, bits []uint32) float64 {
	inter := 0
	for _, b := range bits {
		if w := int(b / 64); w < len(words) {
			inter += int(words[w] >> (b % 64) & 1)
		}
	}
	union := na + len(bits) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// JaccardPacked computes |A∩B|/|A∪B| over packed words: the word-parallel
// form of JaccardSparse. Two empty sets score 1, matching JaccardSparse.
func JaccardPacked(a, b []uint64) float64 {
	inter, union := AndOrCount(a, b)
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
