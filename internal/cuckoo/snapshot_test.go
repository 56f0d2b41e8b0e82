package cuckoo

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlatShardsRoundTrip checks that a multi-shard table (1<<14 cells is
// four shards by the size rule) preserves the flat table's semantics.
func TestFlatShardsRoundTrip(t *testing.T) {
	tb, err := NewFlat(1<<14, DefaultNeighborhood, 0, 1)
	if err != nil {
		t.Fatalf("NewFlat: %v", err)
	}
	if tb.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", tb.Shards())
	}
	if tb.Cap() != 1<<14 {
		t.Fatalf("Cap = %d, want %d", tb.Cap(), 1<<14)
	}
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = rng.Uint64() | 1
		if err := tb.Insert(keys[i], uint64(i)); err != nil {
			t.Fatalf("Insert(%d): %v", keys[i], err)
		}
	}
	if tb.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(keys))
	}
	for i, k := range keys {
		v, ok := tb.Lookup(k)
		if !ok || v != uint64(i) {
			t.Fatalf("Lookup(%d) = (%d,%v), want (%d,true)", k, v, ok, i)
		}
	}
	for _, workers := range []int{1, 4} {
		for i, r := range tb.LookupBatch(keys, workers) {
			if !r.Found || r.Value != uint64(i) {
				t.Fatalf("batch lookup %d (workers=%d) = %+v", i, workers, r)
			}
		}
	}
	if !tb.Delete(keys[0]) || tb.Delete(keys[0]) {
		t.Error("delete semantics broken on sharded table")
	}
	if tb.Len() != len(keys)-1 {
		t.Errorf("Len after delete = %d", tb.Len())
	}
}

// TestFlatShardsStatsAggregate checks that stats sum across shards and that
// a miss still probes exactly ProbeWidth cells (within one shard).
func TestFlatShardsStatsAggregate(t *testing.T) {
	tb, err := NewFlat(1<<14, 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := tb.Stats().Probes
	tb.Lookup(987654321) // miss, empty stash
	if got := tb.Stats().Probes - before; got != tb.ProbeWidth() {
		t.Errorf("miss probed %d cells, want %d", got, tb.ProbeWidth())
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		if err := tb.Insert(rng.Uint64()|1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := tb.Stats(); st.Inserts != 1000 {
		t.Errorf("aggregated Inserts = %d, want 1000", st.Inserts)
	}
}

// TestFlatShardsValidation pins the shard geometry: a function of the
// table size alone (one shard per 4096 cells, at most 16, at least 1),
// never of the host's core count, with every shard wider than ν.
func TestFlatShardsValidation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct{ capacity, nu, shards int }{
			{64, 4, 1},
			{4096, 4, 1},
			{8192, 4, 2},
			{1 << 15, 4, 8},
			{1 << 16, 4, 16},
			{1 << 20, 4, 16},
			{1 << 14, 4096, 2}, // 4 by size, halved until a shard outgrows ν
		} {
			tb, err := NewFlat(c.capacity, c.nu, 0, 1)
			if err != nil {
				t.Fatalf("NewFlat(%d, ν=%d): %v", c.capacity, c.nu, err)
			}
			if tb.Shards() != c.shards {
				t.Errorf("GOMAXPROCS=%d capacity=%d ν=%d: Shards = %d, want %d",
					procs, c.capacity, c.nu, tb.Shards(), c.shards)
			}
			if tb.Cap()/tb.Shards() <= tb.nu {
				t.Errorf("shard size %d not above neighborhood %d",
					tb.Cap()/tb.Shards(), tb.nu)
			}
		}
	}
}

// TestFlatSnapshotCopiesMarkedShardsOnce pins the copy-on-write contract:
// across consecutive snapshots a shard keeps its frozen copy unless a
// mutation landed in it, in which case it gets exactly one fresh copy
// however many mutations that was — and earlier snapshots keep answering
// from the state they froze.
func TestFlatSnapshotCopiesMarkedShardsOnce(t *testing.T) {
	tb, err := NewFlat(1<<16, DefaultNeighborhood, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = rng.Uint64() | 1
		if err := tb.Insert(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	v1 := tb.Snapshot()
	for s, sh := range tb.Snapshot().shards {
		if sh != v1.shards[s] {
			t.Fatalf("shard %d re-copied with no mutation in between", s)
		}
	}

	// A batch between two snapshots: inserts (several per shard), an update
	// and a delete, confined to a few shards.
	touched := make(map[int]bool)
	var added []uint64
	for len(added) < 12 {
		k := rng.Uint64() | 1
		if s := shardIndex(k, tb.Shards()); s < 3 {
			if err := tb.Insert(k, 7); err != nil {
				t.Fatal(err)
			}
			touched[s] = true
			added = append(added, k)
		}
	}
	if err := tb.Insert(keys[1], 99); err != nil {
		t.Fatal(err)
	}
	touched[shardIndex(keys[1], tb.Shards())] = true
	if !tb.Delete(keys[0]) {
		t.Fatal("Delete missed a stored key")
	}
	touched[shardIndex(keys[0], tb.Shards())] = true
	tb.Delete(1<<40 | 1) // a miss marks nothing

	v2 := tb.Snapshot()
	for s := range v2.shards {
		if fresh := v2.shards[s] != v1.shards[s]; fresh != touched[s] {
			t.Errorf("shard %d: re-copied = %v, mutated = %v", s, fresh, touched[s])
		}
	}

	// Snapshot isolation, and the new snapshot tracks the live table.
	if v, ok := v1.Lookup(keys[0]); !ok || v != 0 {
		t.Errorf("earlier snapshot lost a key deleted later: (%d,%v)", v, ok)
	}
	if v, ok := v1.Lookup(keys[1]); !ok || v != 1 {
		t.Errorf("earlier snapshot sees a later update: (%d,%v)", v, ok)
	}
	if _, ok := v1.Lookup(added[0]); ok {
		t.Error("earlier snapshot sees a later insert")
	}
	for _, k := range append(added, keys...) {
		want := tb.LookupBatch([]uint64{k}, 1)[0]
		got, ok := v2.Lookup(k)
		if ok != want.Found || got != want.Value {
			t.Fatalf("snapshot Lookup(%d) = (%d,%v), live table (%d,%v)", k, got, ok, want.Value, want.Found)
		}
	}
}

// TestFlatShardsConcurrent runs the table the way its contract allows: one
// writer (Insert/Delete/Snapshot) and many readers on the snapshots it
// publishes, plus a read-only LookupBatch fan-out once the writer is done.
// Run under -race to validate that a published View shares nothing the
// writer still mutates.
func TestFlatShardsConcurrent(t *testing.T) {
	tb, err := NewFlat(1<<15, DefaultNeighborhood, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	var published atomic.Pointer[View]
	published.Store(tb.Snapshot())
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1)) // the writer's key stream
			for !stop.Load() {
				published.Load().Lookup(rng.Uint64() | 1)
			}
		}()
	}
	rng := rand.New(rand.NewSource(1))
	kept := make([]uint64, 0, 600)
	for i := 0; i < 1200; i++ {
		k := rng.Uint64() | 1
		if err := tb.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			tb.Delete(k)
		} else {
			kept = append(kept, k)
		}
		published.Store(tb.Snapshot())
	}
	stop.Store(true)
	wg.Wait()
	for i, r := range tb.LookupBatch(kept, 4) {
		if !r.Found || r.Value != uint64(2*i) {
			t.Fatalf("kept key %d = %+v, want value %d", kept[i], r, 2*i)
		}
	}
	final := published.Load()
	for _, k := range kept {
		if _, ok := final.Lookup(k); !ok {
			t.Fatalf("key %d missing from the final snapshot", k)
		}
	}
}
