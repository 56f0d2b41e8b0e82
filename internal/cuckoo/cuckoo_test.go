package cuckoo

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewStandardValidation(t *testing.T) {
	if _, err := NewStandard(0, 0, 1); err == nil {
		t.Error("zero capacity should fail")
	}
	tb, err := NewStandard(100, 0, 1)
	if err != nil {
		t.Fatalf("NewStandard: %v", err)
	}
	if tb.Cap() != 128 {
		t.Errorf("Cap = %d, want next pow2 128", tb.Cap())
	}
}

func TestStandardInsertLookupDelete(t *testing.T) {
	tb, _ := NewStandard(1024, 0, 1)
	for k := uint64(1); k <= 100; k++ {
		if err := tb.Insert(k, k*10); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if tb.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tb.Len())
	}
	for k := uint64(1); k <= 100; k++ {
		v, ok := tb.Lookup(k)
		if !ok || v != k*10 {
			t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
		}
	}
	if _, ok := tb.Lookup(9999); ok {
		t.Error("Lookup of absent key returned true")
	}
}

func TestStandardUpdateInPlace(t *testing.T) {
	tb, _ := NewStandard(64, 0, 1)
	if err := tb.Insert(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(7, 2); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d after update, want 1", tb.Len())
	}
	v, _ := tb.Lookup(7)
	if v != 2 {
		t.Errorf("value = %d, want 2", v)
	}
}

func TestStandardRejectsKeyZero(t *testing.T) {
	tb, _ := NewStandard(64, 0, 1)
	if err := tb.Insert(0, 1); err == nil {
		t.Error("key 0 must be rejected")
	}
}

func TestStandardFailsAtHighLoad(t *testing.T) {
	// Single-slot two-choice cuckoo cannot sustain loads near 1.
	tb, _ := NewStandard(256, 50, 42)
	rng := rand.New(rand.NewSource(1))
	var failed bool
	for i := 0; i < 256; i++ {
		if err := tb.Insert(rng.Uint64()|1, 1); err != nil {
			failed = true
			if !errors.Is(err, ErrTableFull) {
				t.Fatalf("failure not wrapped in ErrTableFull: %v", err)
			}
			break
		}
	}
	if !failed {
		t.Error("standard cuckoo filled a table to load 1.0 without failure")
	}
	if tb.Stats().Failures == 0 {
		t.Error("failure not recorded in stats")
	}
}

func TestNewFlatValidation(t *testing.T) {
	if _, err := NewFlat(0, 4, 0, 1); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := NewFlat(64, -1, 0, 1); err == nil {
		t.Error("negative neighborhood should fail")
	}
	if _, err := NewFlat(4, 10, 0, 1); err == nil {
		t.Error("neighborhood >= size should fail")
	}
}

func TestFlatInsertLookupDelete(t *testing.T) {
	tb, _ := NewFlat(1024, DefaultNeighborhood, 0, 1)
	for k := uint64(1); k <= 700; k++ {
		if err := tb.Insert(k, k+5); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if tb.Len() != 700 {
		t.Fatalf("Len = %d, want 700", tb.Len())
	}
	for k := uint64(1); k <= 700; k++ {
		v, ok := tb.Lookup(k)
		if !ok || v != k+5 {
			t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
		}
	}
	if !tb.Delete(123) || tb.Delete(123) {
		t.Error("delete semantics broken")
	}
	if _, ok := tb.Lookup(123); ok {
		t.Error("deleted key still found")
	}
}

// TestFlatKeyZeroMisses: key 0 marks an empty cell, so no operation on the
// live table or a snapshot may mistake an empty cell for it.
func TestFlatKeyZeroMisses(t *testing.T) {
	tb, _ := NewFlat(1<<14, DefaultNeighborhood, 0, 1) // large enough to shard
	for k := uint64(1); k <= 50; k++ {
		if err := tb.Insert(k, k); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if err := tb.Insert(0, 1); err == nil {
		t.Error("Insert(0) must be rejected")
	}
	for i := 0; i < 2; i++ {
		if tb.Delete(0) {
			t.Error("Delete(0) = true")
		}
	}
	if _, ok := tb.Lookup(0); ok {
		t.Error("Lookup(0) found an empty cell")
	}
	if r := tb.LookupBatch([]uint64{0, 7}, 1); r[0].Found || !r[1].Found {
		t.Errorf("LookupBatch([0 7]) = %+v", r)
	}
	if _, ok := tb.Snapshot().Lookup(0); ok {
		t.Error("snapshot Lookup(0) found an empty cell")
	}
	if tb.Len() != 50 {
		t.Errorf("Len = %d after key-0 operations, want 50", tb.Len())
	}
}

func TestFlatUpdateInPlace(t *testing.T) {
	tb, _ := NewFlat(64, 2, 0, 1)
	_ = tb.Insert(9, 1)
	_ = tb.Insert(9, 7)
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
	if v, _ := tb.Lookup(9); v != 7 {
		t.Errorf("value = %d, want 7", v)
	}
}

func TestFlatProbeWidthConstant(t *testing.T) {
	tb, _ := NewFlat(1024, 4, 0, 1)
	if tb.ProbeWidth() != 10 {
		t.Errorf("ProbeWidth = %d, want 10 for ν=4", tb.ProbeWidth())
	}
	// Probes per lookup must equal ProbeWidth for a miss.
	before := tb.Stats().Probes
	tb.Lookup(12345)
	if got := tb.Stats().Probes - before; got != tb.ProbeWidth() {
		t.Errorf("miss probed %d cells, want %d", got, tb.ProbeWidth())
	}
}

func TestFlatSustainsHigherLoadThanStandard(t *testing.T) {
	// The Figure 6 mechanism: at the same high load, flat addressing fails
	// far less often than standard cuckoo hashing.
	const capacity = 1 << 12
	target := capacity * 95 / 100
	run := func(tb Table) int {
		rng := rand.New(rand.NewSource(7))
		fails := 0
		for i := 0; i < target; i++ {
			if err := tb.Insert(rng.Uint64()|1, 1); err != nil {
				fails++
			}
		}
		return fails
	}
	std, _ := NewStandard(capacity, 0, 3)
	flat, _ := NewFlat(capacity, DefaultNeighborhood, 0, 3)
	sf, ff := run(std), run(flat)
	if ff >= sf {
		t.Errorf("flat failures %d >= standard failures %d at load 0.95", ff, sf)
	}
	if ff > 0 {
		t.Errorf("flat cuckoo failed %d times at load 0.95; expect ~0", ff)
	}
	if flat.Stats().NeighborHits == 0 {
		t.Error("no neighbor placements recorded; adjacent storage inactive")
	}
}

func TestFlatZeroNeighborhoodDegeneratesToStandardBehavior(t *testing.T) {
	// ν=0 keeps only the two homes; failures should reappear at high load.
	const capacity = 1 << 10
	tb, _ := NewFlat(capacity, 0, 50, 5)
	rng := rand.New(rand.NewSource(9))
	fails := 0
	for i := 0; i < capacity; i++ {
		if err := tb.Insert(rng.Uint64()|1, 1); err != nil {
			fails++
		}
	}
	if fails == 0 {
		t.Error("ν=0 flat table filled to load 1.0 without failures")
	}
}

func TestFlatLookupBatchMatchesSequential(t *testing.T) {
	tb, _ := NewFlat(4096, 4, 0, 11)
	rng := rand.New(rand.NewSource(13))
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = rng.Uint64() | 1
		if i%2 == 0 {
			if err := tb.Insert(keys[i], uint64(i)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
	}
	for _, workers := range []int{0, 1, 2, 8, 64} {
		res := tb.LookupBatch(keys, workers)
		if len(res) != len(keys) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(res), len(keys))
		}
		for i, r := range res {
			v, ok := tb.Lookup(keys[i])
			if r.Found != ok || r.Value != v {
				t.Fatalf("workers=%d key %d: batch (%d,%v) vs seq (%d,%v)",
					workers, keys[i], r.Value, r.Found, v, ok)
			}
		}
	}
	if res := tb.LookupBatch(nil, 4); len(res) != 0 {
		t.Error("empty batch should return empty results")
	}
}

func TestHashPairDistinct(t *testing.T) {
	f := func(key uint64) bool {
		b1, b2 := hashPair(key, 1023)
		return b1 != b2 && b1 <= 1023 && b2 <= 1023
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: insert-then-lookup round-trips for arbitrary key/value sets at
// modest load.
func TestFlatRoundTripProperty(t *testing.T) {
	f := func(pairs map[uint64]uint64) bool {
		tb, err := NewFlat(4*len(pairs)+64, 4, 0, 17)
		if err != nil {
			return false
		}
		for k, v := range pairs {
			if k == 0 {
				continue
			}
			if err := tb.Insert(k, v); err != nil {
				return false
			}
		}
		for k, v := range pairs {
			if k == 0 {
				continue
			}
			got, ok := tb.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

var _ Table = (*Standard)(nil)
var _ Table = (*Flat)(nil)
