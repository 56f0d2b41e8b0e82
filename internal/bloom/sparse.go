package bloom

import (
	"fmt"
	"sort"
)

// Sparse is the space-efficient summary representation the paper stores:
// only the positions of set bits, sorted ascending. For a typical per-image
// summary this is tens of bytes instead of the dense array (the paper's
// 200KB -> 40B example).
type Sparse struct {
	M    uint32   // geometry of the originating filter
	K    int      //
	Bits []uint32 // sorted set-bit positions
}

// CheckPositions reports whether positions is a valid sparse summary of an
// m-bit filter: strictly increasing and below m. Every stored form of a
// summary — hot entries, snapshots, cold-segment records — passes it, so a
// summary's position count is its popcount and packing it loses nothing.
func CheckPositions(m uint32, positions []uint32) error {
	for i, b := range positions {
		if b >= m {
			return fmt.Errorf("position %d ≥ m %d", b, m)
		}
		if i > 0 && b <= positions[i-1] {
			return fmt.Errorf("positions not strictly increasing at index %d", i)
		}
	}
	return nil
}

// ToSparse converts a dense filter to its sparse form.
func ToSparse(f *Filter) *Sparse {
	return &Sparse{M: f.m, K: f.k, Bits: f.SetBits()}
}

// ToDense reconstructs a dense filter from the sparse form.
func (s *Sparse) ToDense() (*Filter, error) {
	f, err := New(s.M, s.K)
	if err != nil {
		return nil, err
	}
	for _, b := range s.Bits {
		if b >= s.M {
			return nil, fmt.Errorf("bloom: sparse bit %d out of range (m=%d)", b, s.M)
		}
		f.bits[b/64] |= 1 << (b % 64)
	}
	return f, nil
}

// SizeBytes returns the serialized size of the sparse summary
// (4 bytes per set bit plus an 8-byte header).
func (s *Sparse) SizeBytes() int { return 8 + 4*len(s.Bits) }

// Contains reports whether bit b is set.
func (s *Sparse) Contains(b uint32) bool {
	i := sort.Search(len(s.Bits), func(i int) bool { return s.Bits[i] >= b })
	return i < len(s.Bits) && s.Bits[i] == b
}

// HammingDistanceSparse computes the Hamming distance between two sparse
// summaries by merging their sorted bit lists, without densifying.
func HammingDistanceSparse(a, b *Sparse) (int, error) {
	if a.M != b.M {
		return 0, fmt.Errorf("bloom: geometry mismatch m=%d vs m=%d", a.M, b.M)
	}
	i, j, d := 0, 0, 0
	for i < len(a.Bits) && j < len(b.Bits) {
		switch {
		case a.Bits[i] == b.Bits[j]:
			i++
			j++
		case a.Bits[i] < b.Bits[j]:
			d++
			i++
		default:
			d++
			j++
		}
	}
	d += len(a.Bits) - i
	d += len(b.Bits) - j
	return d, nil
}

// JaccardSparse computes |A∩B|/|A∪B| over the sparse bit lists.
func JaccardSparse(a, b *Sparse) (float64, error) {
	if a.M != b.M {
		return 0, fmt.Errorf("bloom: geometry mismatch m=%d vs m=%d", a.M, b.M)
	}
	i, j, inter := 0, 0, 0
	for i < len(a.Bits) && j < len(b.Bits) {
		switch {
		case a.Bits[i] == b.Bits[j]:
			inter++
			i++
			j++
		case a.Bits[i] < b.Bits[j]:
			i++
		default:
			j++
		}
	}
	union := len(a.Bits) + len(b.Bits) - inter
	if union == 0 {
		return 1, nil
	}
	return float64(inter) / float64(union), nil
}
