package lsh

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// shardPtrs identifies each frozen shard map by address, so two snapshots
// can be compared for sharing.
func shardPtrs(v *View) []uintptr {
	out := make([]uintptr, len(v.shards))
	for i, m := range v.shards {
		out[i] = reflect.ValueOf(m).Pointer()
	}
	return out
}

// TestMinHashSnapshotCopiesMarkedShardsOnce pins the copy-on-write
// contract: across consecutive snapshots a shard keeps its frozen map
// unless a mutation landed in it, in which case it gets exactly one fresh
// copy however many mutations that was — and earlier snapshots keep
// answering from the state they froze.
func TestMinHashSnapshotCopiesMarkedShardsOnce(t *testing.T) {
	mh, err := NewMinHash(MinHashParams{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sets := make([][]uint32, 200)
	for i := range sets {
		sets[i] = randomSet(rng, 48, 4096)
		if err := mh.Insert(ItemID(i), sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	v1 := mh.Snapshot()
	if got := shardPtrs(mh.Snapshot()); !reflect.DeepEqual(got, shardPtrs(v1)) {
		t.Fatal("a snapshot with no mutation in between copied a shard")
	}
	before, err := v1.AppendQuery(nil, nil, sets[0])
	if err != nil {
		t.Fatal(err)
	}

	// A batch between two snapshots: several inserts (some sharing shards)
	// and one delete.
	touched := make(map[int]bool)
	mark := func(set []uint32) {
		for b := range mh.seeds {
			touched[shardIndex(b, signature(mh.seeds, b, set))] = true
		}
	}
	for i := 0; i < 12; i++ {
		set := randomSet(rng, 48, 4096)
		if err := mh.Insert(ItemID(1000+i), set); err != nil {
			t.Fatal(err)
		}
		mark(set)
	}
	if ok, err := mh.Delete(0, sets[0]); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	mark(sets[0])
	if len(touched) == len(mh.shards) {
		t.Fatal("batch touched every shard; the test cannot observe sharing")
	}

	p1 := shardPtrs(v1)
	v2 := mh.Snapshot()
	fresh := 0
	for s, p := range shardPtrs(v2) {
		switch {
		case touched[s] && p == p1[s]:
			t.Errorf("shard %d was mutated but the snapshot still shares the old copy", s)
		case !touched[s] && p != p1[s]:
			t.Errorf("shard %d was not mutated but was re-copied", s)
		case touched[s]:
			fresh++
		}
	}
	if fresh != len(touched) {
		t.Errorf("%d shards copied, want %d (one per marked shard)", fresh, len(touched))
	}

	// Snapshot isolation, and the new snapshot tracks the live index.
	after, err := v1.AppendQuery(nil, nil, sets[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("an earlier snapshot changed its answer after later mutations")
	}
	for _, set := range sets[:40] {
		live, err := mh.Query(set)
		if err != nil {
			t.Fatal(err)
		}
		frozen, err := v2.AppendQuery(nil, nil, set)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, frozen) {
			t.Fatalf("snapshot answers %v, live index %v", frozen, live)
		}
	}
}

// TestMinHashShardedConcurrent runs the structure the way its contract
// allows: one writer (Insert/Delete/Snapshot) and many readers on the
// snapshots it publishes. Run under -race to validate that a published
// View shares nothing a writer still mutates.
func TestMinHashShardedConcurrent(t *testing.T) {
	mh, err := NewMinHash(MinHashParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var published atomic.Pointer[View]
	published.Store(mh.Snapshot())
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var keys []uint64
			for !stop.Load() {
				v := published.Load()
				set := randomSet(rng, 48, 4096)
				if _, err := v.AppendQuery(nil, nil, set); err != nil {
					t.Error(err)
					return
				}
				var err error
				if keys, err = v.AppendBandKeys(keys[:0], set); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		set := randomSet(rng, 48, 4096)
		if err := mh.Insert(ItemID(i), set); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 { // odd ids are deleted again: exercises bucket copy-on-write
			if _, err := mh.Delete(ItemID(i), set); err != nil {
				t.Fatal(err)
			}
		}
		published.Store(mh.Snapshot())
	}
	stop.Store(true)
	wg.Wait()
	if refs := mh.Stats().TotalRefs; refs != 200*mh.Params().Bands {
		t.Errorf("%d bucket refs after churn, want one per band for each of 200 items", refs)
	}
}

// TestMinHashShardsIgnoreHost pins that the shard geometry is a constant of
// the structure, not of the machine it runs on.
func TestMinHashShardsIgnoreHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one, err := NewMinHash(MinHashParams{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	eight, err := NewMinHash(MinHashParams{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Shards() != eight.Shards() || one.Shards() != minhashShards {
		t.Errorf("Shards = %d at GOMAXPROCS 1, %d at 8, want %d", one.Shards(), eight.Shards(), minhashShards)
	}
}

// TestMinHashQueryDeterministicOrder checks first-seen candidate order: the
// query result must not depend on shard topology, only on band order.
func TestMinHashQueryDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	build := func() *MinHash {
		mh, err := NewMinHash(MinHashParams{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return mh
	}
	a, b := build(), build()
	sets := make([][]uint32, 300)
	for i := range sets {
		sets[i] = randomSet(rng, 64, 2048)
		if err := a.Insert(ItemID(i), sets[i]); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert(ItemID(i), sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		ra, err := a.Query(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Query(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("query %d: candidate order diverges: %v vs %v", i, ra, rb)
		}
	}
}
