// Package cuckoo implements the Cuckoo-Hashing Storage (CHS) module of FAST:
// flat-structured addressing for correlation-aware groups.
//
// Two tables are provided:
//
//   - Standard: textbook cuckoo hashing (Pagh & Rodler, ESA'01) with two
//     hash functions and single-slot buckets. Insertions displace residents
//     recursively; an insertion that exceeds the kick budget fails, which in
//     a real system forces a rehash. This is the paper's comparison point in
//     Figure 6.
//
//   - Flat: FAST's variant with *adjacent neighboring storage*
//     (Section III, "we address this problem via adjacent neighboring
//     storage"): every key still has two home buckets, but it may reside in
//     any of the ν cells following either home. Lookups therefore probe a
//     constant 2(ν+1) cells — trivially parallelizable, the paper's
//     flat-structured O(1) addressing — while insertions almost always find
//     a free neighbor cell instead of starting a kick chain. The failure
//     (rehash) probability drops by orders of magnitude (Figure 6 reports
//     ~1.7e-6 vs ~4e-3 at the paper's load).
//
// Both tables satisfy the Table interface so the evaluation harness can
// drive them interchangeably.
package cuckoo

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrTableFull is returned when an insertion cannot be placed within the
// kick budget; a production system would rehash into a larger table.
var ErrTableFull = errors.New("cuckoo: insertion failed (rehash required)")

// KeyValue is one stored entry. Key 0 is reserved as the empty marker, so
// callers must not insert key 0 (the constructors document this and Insert
// rejects it).
type KeyValue struct {
	Key   uint64
	Value uint64
}

// Table is the common interface of the two cuckoo variants.
type Table interface {
	// Insert stores (key, value), replacing any existing value for key.
	// It returns ErrTableFull when the placement fails.
	Insert(key, value uint64) error
	// Lookup returns the value for key and whether it is present.
	Lookup(key uint64) (uint64, bool)
	// Len returns the number of stored entries.
	Len() int
	// Cap returns the number of cells.
	Cap() int
	// Stats returns cumulative operation statistics.
	Stats() Stats
}

// Stats counts the work done by a table since creation.
type Stats struct {
	Inserts      int // completed insertions (including stash placements)
	Failures     int // insertions that overflowed to the stash (rehash events)
	Kicks        int // displacement steps across all insertions
	Probes       int // cells examined by lookups
	Lookups      int
	MaxChain     int // longest single-insert kick chain observed
	NeighborHits int // flat only: placements resolved by a neighbor cell
}

// hashPair derives the two bucket indices for key in a table of size
// (power-of-two) mask+1. The two hashes come from independent SplitMix64
// streams.
func hashPair(key uint64, mask uint64) (uint64, uint64) {
	h1 := mix(key ^ 0x9e3779b97f4a7c15)
	h2 := mix(key ^ 0xc2b2ae3d27d4eb4f)
	b1 := h1 & mask
	b2 := h2 & mask
	if b1 == b2 { // force distinct homes
		b2 = (b2 + 1) & mask
	}
	return b1, b2
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nextPow2 rounds n up to a power of two (minimum 2).
func nextPow2(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// Standard is the textbook two-function, single-slot cuckoo table, plus a
// stash: when a displacement chain exceeds the kick budget the item in hand
// is parked in a small overflow list instead of being lost. The insertion
// still reports ErrTableFull — the signal Figure 6 counts — but the table
// remains complete, which is what lets a wrapper rehash lazily.
type Standard struct {
	cells    []KeyValue
	stash    []KeyValue
	mask     uint64
	n        int
	maxKicks int
	rng      *rand.Rand
	stats    Stats
}

// DefaultMaxKicks bounds the displacement chain before declaring failure.
const DefaultMaxKicks = 500

// NewStandard creates a standard cuckoo table with at least capacity cells
// (rounded up to a power of two). maxKicks 0 selects DefaultMaxKicks.
// Key 0 is reserved and cannot be stored.
func NewStandard(capacity, maxKicks int, seed int64) (*Standard, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cuckoo: capacity must be positive, got %d", capacity)
	}
	if maxKicks == 0 {
		maxKicks = DefaultMaxKicks
	}
	size := nextPow2(capacity)
	return &Standard{
		cells:    make([]KeyValue, size),
		mask:     uint64(size - 1),
		maxKicks: maxKicks,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// Len returns the number of stored entries.
func (t *Standard) Len() int { return t.n }

// Cap returns the number of cells.
func (t *Standard) Cap() int { return len(t.cells) }

// Stats returns cumulative statistics.
func (t *Standard) Stats() Stats { return t.stats }

// Lookup probes the two home cells and the stash.
func (t *Standard) Lookup(key uint64) (uint64, bool) {
	t.stats.Lookups++
	b1, b2 := hashPair(key, t.mask)
	t.stats.Probes += 2
	if t.cells[b1].Key == key {
		return t.cells[b1].Value, true
	}
	if t.cells[b2].Key == key {
		return t.cells[b2].Value, true
	}
	for i := range t.stash {
		t.stats.Probes++
		if t.stash[i].Key == key {
			return t.stash[i].Value, true
		}
	}
	return 0, false
}

// Insert stores (key, value), kicking residents as needed.
func (t *Standard) Insert(key, value uint64) error {
	if key == 0 {
		return errors.New("cuckoo: key 0 is reserved")
	}
	b1, b2 := hashPair(key, t.mask)
	// Replace in place if present.
	if t.cells[b1].Key == key {
		t.cells[b1].Value = value
		return nil
	}
	if t.cells[b2].Key == key {
		t.cells[b2].Value = value
		return nil
	}
	for i := range t.stash {
		if t.stash[i].Key == key {
			t.stash[i].Value = value
			return nil
		}
	}
	cur := KeyValue{Key: key, Value: value}
	pos := b1
	if t.cells[b1].Key != 0 && t.cells[b2].Key == 0 {
		pos = b2
	}
	chain := 0
	for i := 0; i < t.maxKicks; i++ {
		if t.cells[pos].Key == 0 {
			t.cells[pos] = cur
			t.n++
			t.stats.Inserts++
			if chain > t.stats.MaxChain {
				t.stats.MaxChain = chain
			}
			return nil
		}
		// Evict the resident and move it to its alternate home.
		cur, t.cells[pos] = t.cells[pos], cur
		chain++
		t.stats.Kicks++
		a1, a2 := hashPair(cur.Key, t.mask)
		if pos == a1 {
			pos = a2
		} else {
			pos = a1
		}
	}
	// The chain exhausted its kick budget: park the item in hand in the
	// stash so no data is lost, and report the rehash event.
	t.stash = append(t.stash, cur)
	t.n++
	t.stats.Inserts++
	t.stats.Failures++
	return fmt.Errorf("%w: key %d after %d kicks", ErrTableFull, cur.Key, t.maxKicks)
}
