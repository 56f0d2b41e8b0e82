package lsh

import (
	"math/rand"
	"testing"
)

func TestMinHashDelete(t *testing.T) {
	mh, _ := NewMinHash(MinHashParams{Seed: 4})
	set := []uint32{1, 5, 9, 12}
	if err := mh.Insert(7, set); err != nil {
		t.Fatal(err)
	}
	removed, err := mh.Delete(7, set)
	if err != nil || !removed {
		t.Fatalf("Delete = %v, %v", removed, err)
	}
	if refs := mh.Stats().TotalRefs; refs != 0 {
		t.Errorf("%d bucket refs left after delete", refs)
	}
	got, _ := mh.Query(set)
	if len(got) != 0 {
		t.Errorf("deleted item still returned: %v", got)
	}
	if removed, _ := mh.Delete(7, set); removed {
		t.Error("double delete returned true")
	}
	if _, err := mh.Delete(7, nil); err == nil {
		t.Error("empty set should fail")
	}
}

func TestMinHashDeleteSelective(t *testing.T) {
	mh, _ := NewMinHash(MinHashParams{Seed: 5})
	rng := rand.New(rand.NewSource(6))
	sets := make([][]uint32, 40)
	for i := range sets {
		sets[i] = randomSet(rng, 30, 100000)
		_ = mh.Insert(ItemID(i), sets[i])
	}
	for i := 0; i < 40; i += 2 {
		if removed, err := mh.Delete(ItemID(i), sets[i]); err != nil || !removed {
			t.Fatalf("delete %d: %v %v", i, removed, err)
		}
	}
	if refs := mh.Stats().TotalRefs; refs != 20*mh.Params().Bands {
		t.Fatalf("%d bucket refs, want one per band for each of 20 survivors", refs)
	}
	for i := 1; i < 40; i += 2 {
		got, err := mh.Query(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, id := range got {
			if id == ItemID(i) {
				found = true
			}
			if id%2 == 0 {
				t.Fatalf("deleted item %d returned", id)
			}
		}
		if !found {
			t.Fatalf("survivor %d lost", i)
		}
	}
}
