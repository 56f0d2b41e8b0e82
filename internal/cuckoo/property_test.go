package cuckoo

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/fastrepro/fast/internal/failpoint"
)

// checkAllFindable asserts every model key resolves — via both the scalar
// and the batch lookup paths — and that the table holds nothing extra.
func checkAllFindable(t *testing.T, label string, flat *Flat, model map[uint64]uint64) {
	t.Helper()
	if flat.Len() != len(model) {
		t.Fatalf("%s: Len = %d, model has %d", label, flat.Len(), len(model))
	}
	keys := make([]uint64, 0, len(model))
	for k, v := range model {
		got, ok := flat.Lookup(k)
		if !ok || got != v {
			t.Fatalf("%s: key %d: ok=%v got=%d want=%d", label, k, ok, got, v)
		}
		keys = append(keys, k)
	}
	for i, lr := range flat.LookupBatch(keys, 4) {
		if want := model[keys[i]]; !lr.Found || lr.Value != want {
			t.Fatalf("%s: batch lookup %d: %+v want %d", label, keys[i], lr, want)
		}
	}
}

// TestFlatPropertyRandomOps drives seeded random insert/update/delete
// mixes at several load levels and checks the full findability invariant
// after each phase.
func TestFlatPropertyRandomOps(t *testing.T) {
	for _, seed := range []int64{1, 42, 777} {
		rng := rand.New(rand.NewSource(seed))
		flat, err := NewFlat(2048, 2, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		model := map[uint64]uint64{}
		for phase := 0; phase < 4; phase++ {
			for op := 0; op < 600; op++ {
				key := uint64(rng.Intn(1500)) + 1
				switch rng.Intn(3) {
				case 0, 1: // bias toward inserts to push load up
					val := rng.Uint64()
					if err := flat.Insert(key, val); err != nil && !errors.Is(err, ErrTableFull) {
						t.Fatalf("seed %d: insert: %v", seed, err)
					}
					model[key] = val
				case 2:
					want := false
					if _, ok := model[key]; ok {
						want = true
						delete(model, key)
					}
					if got := flat.Delete(key); got != want {
						t.Fatalf("seed %d: delete %d = %v want %v", seed, key, got, want)
					}
				}
			}
			checkAllFindable(t, "phase", flat, model)
		}
	}
}

// TestDeleteInsertIdempotent: delete followed by insert of the same pair
// restores exactly the observable state, repeatedly, from any starting
// fill.
func TestDeleteInsertIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	flat, err := NewFlat(512, 2, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]uint64{}
	for i := 0; i < 300; i++ {
		k := uint64(rng.Intn(400)) + 1
		v := rng.Uint64()
		if err := flat.Insert(k, v); err != nil && !errors.Is(err, ErrTableFull) {
			t.Fatal(err)
		}
		model[k] = v
	}
	keys := make([]uint64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	for round := 0; round < 3; round++ {
		for _, k := range keys {
			v := model[k]
			if !flat.Delete(k) {
				t.Fatalf("round %d: delete %d reported absent", round, k)
			}
			if _, ok := flat.Lookup(k); ok {
				t.Fatalf("round %d: key %d visible after delete", round, k)
			}
			if err := flat.Insert(k, v); err != nil && !errors.Is(err, ErrTableFull) {
				t.Fatalf("round %d: reinsert %d: %v", round, k, err)
			}
			if got, ok := flat.Lookup(k); !ok || got != v {
				t.Fatalf("round %d: key %d after delete+insert: ok=%v got=%d want=%d", round, k, ok, got, v)
			}
		}
		checkAllFindable(t, "idempotency round", flat, model)
	}
}

// TestInjectedInsertFullLandsInStash forces a kick-chain exhaustion via
// failpoint on a nearly-empty table: the insert must report ErrTableFull
// (the rehash signal) yet still complete into the stash.
func TestInjectedInsertFullLandsInStash(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	failpoint.Reset()
	flat, err := NewFlat(1024, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	failpoint.Enable(failpoint.CuckooInsertFull, failpoint.Policy{Action: failpoint.Error, Times: 1})
	err = flat.Insert(42, 4242)
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("injected exhaustion returned %v, want ErrTableFull", err)
	}
	if got, ok := flat.Lookup(42); !ok || got != 4242 {
		t.Fatalf("stashed key lost: ok=%v got=%d", ok, got)
	}
	if st := flat.Stats(); st.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", st.Failures)
	}
	// Updating and deleting a stashed key must work like any other.
	if err := flat.Insert(42, 99); err != nil {
		t.Fatalf("updating stashed key: %v", err)
	}
	if got, _ := flat.Lookup(42); got != 99 {
		t.Fatalf("stashed key update lost: %d", got)
	}
	if !flat.Delete(42) {
		t.Fatal("stashed key not deletable")
	}
}
