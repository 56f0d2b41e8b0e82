package cuckoo

import (
	"math/rand"
	"testing"
)

// TestFlatMatchesMapUnderMixedOps drives the flat table and a reference map
// through the same random operation sequence and checks they agree after
// every step — a stateful model test for the CHS module.
func TestFlatMatchesMapUnderMixedOps(t *testing.T) {
	tb, err := NewFlat(4096, DefaultNeighborhood, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(99))
	keys := make([]uint64, 600)
	for i := range keys {
		keys[i] = rng.Uint64() | 1
	}
	const steps = 20000
	for step := 0; step < steps; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // insert/update
			v := rng.Uint64()
			if err := tb.Insert(k, v); err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			ref[k] = v
		case 5, 6: // delete
			got := tb.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, k, got, want)
			}
			delete(ref, k)
		default: // lookup
			v, ok := tb.Lookup(k)
			wantV, wantOK := ref[k]
			if ok != wantOK || v != wantV {
				t.Fatalf("step %d: Lookup(%d) = (%d,%v), want (%d,%v)",
					step, k, v, ok, wantV, wantOK)
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, ref %d", step, tb.Len(), len(ref))
		}
	}
	// Final sweep: every reference entry is present with the right value.
	for k, v := range ref {
		got, ok := tb.Lookup(k)
		if !ok || got != v {
			t.Fatalf("final: Lookup(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
		}
	}
}
