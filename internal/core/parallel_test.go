package core

import (
	"fmt"
	"testing"
)

// assertEnginesEqual checks that two engines hold byte-identical indexes:
// same size, same LSH occupancy, same cuckoo counters, and identical query
// results for a probe sweep.
func assertEnginesEqual(t *testing.T, label string, seq, par *Engine) {
	t.Helper()
	if par.Len() != seq.Len() {
		t.Fatalf("%s: Len %d != sequential %d", label, par.Len(), seq.Len())
	}
	if par.IndexBytes() != seq.IndexBytes() {
		t.Errorf("%s: index sizes differ: %d vs %d", label, par.IndexBytes(), seq.IndexBytes())
	}
	if p, s := par.Stats().LSH, seq.Stats().LSH; p != s {
		t.Errorf("%s: LSH stats differ: %+v vs %+v", label, p, s)
	}
	ds := testDatasetCached(t)
	qs, err := ds.Queries(6, 31)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		a, err := seq.Query(q.Probe, 40)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Query(q.Probe, 40)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: query %d: %d vs %d results", label, qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: query %d result %d: %+v vs %+v", label, qi, i, a[i], b[i])
			}
		}
	}
}

// TestBuildParallelMatchesSequential asserts the staged pipeline's ordering
// guarantee: Build at any worker count produces an index byte-identical to
// the sequential path — same sizes, same table counters, same ranked
// results.
func TestBuildParallelMatchesSequential(t *testing.T) {
	ds := testDatasetCached(t)

	seq := NewEngine(Config{IngestWorkers: 1})
	seqStats, err := seq.Build(ds.Photos)
	if err != nil {
		t.Fatalf("sequential build: %v", err)
	}
	seqTable := seq.Stats().Table

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			par := NewEngine(Config{IngestWorkers: workers})
			st, err := par.Build(ds.Photos)
			if err != nil {
				t.Fatalf("parallel build: %v", err)
			}
			if st.Photos != seqStats.Photos || st.Descriptors != seqStats.Descriptors {
				t.Fatalf("stats diverge: %+v vs sequential %+v", st, seqStats)
			}
			// Cuckoo insertion counters (kicks, neighbor hits, ...) depend
			// only on the key sequence, which the ordered committer
			// preserves exactly.
			if got := par.Stats().Table; got != seqTable {
				t.Fatalf("table stats diverge: %+v vs %+v", got, seqTable)
			}
			assertEnginesEqual(t, fmt.Sprintf("workers=%d", workers), seq, par)
		})
	}
}

// TestBuildDefaultConfigUsesPipeline checks that plain Build (IngestWorkers
// 0 → GOMAXPROCS) is equivalent to the sequential reference too.
func TestBuildDefaultConfigUsesPipeline(t *testing.T) {
	ds := testDatasetCached(t)
	seq := NewEngine(Config{IngestWorkers: 1})
	if _, err := seq.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	def := NewEngine(Config{})
	if _, err := def.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	if d, s := def.Stats().Table, seq.Stats().Table; d != s {
		t.Fatalf("table stats diverge: %+v vs %+v", d, s)
	}
	assertEnginesEqual(t, "default-config", seq, def)
}

// TestInsertBatchMatchesSequentialInsert grows two identically bootstrapped
// engines — one by sequential Insert calls, one by InsertBatch with a
// worker pool — and requires identical indexes.
func TestInsertBatchMatchesSequentialInsert(t *testing.T) {
	ds := testDatasetCached(t)
	split := len(ds.Photos) / 2
	boot, stream := ds.Photos[:split], ds.Photos[split:]

	mk := func() *Engine {
		e := NewEngine(Config{IngestWorkers: 1, TableCapacity: 2 * len(ds.Photos)})
		if _, err := e.Build(boot); err != nil {
			t.Fatalf("bootstrap build: %v", err)
		}
		return e
	}

	seq := mk()
	for _, p := range stream {
		if err := seq.Insert(p); err != nil {
			t.Fatalf("sequential insert %d: %v", p.ID, err)
		}
	}
	seqTable := seq.Stats().Table

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			par := mk()
			st, err := par.InsertBatch(stream, workers)
			if err != nil {
				t.Fatalf("InsertBatch: %v", err)
			}
			if st.Photos != len(stream) || st.Descriptors == 0 {
				t.Fatalf("batch stats: %+v", st)
			}
			if got := par.Stats().Table; got != seqTable {
				t.Fatalf("table stats diverge: %+v vs %+v", got, seqTable)
			}
			assertEnginesEqual(t, fmt.Sprintf("insertbatch-%d", workers), seq, par)
		})
	}
}

func TestInsertBatchValidation(t *testing.T) {
	ds := testDatasetCached(t)
	e := NewEngine(Config{})
	if _, err := e.InsertBatch(ds.Photos[:4], 2); err == nil {
		t.Error("InsertBatch on an unbuilt engine should fail")
	}
	if _, err := e.Build(ds.Photos[:40]); err != nil {
		t.Fatal(err)
	}
	if st, err := e.InsertBatch(nil, 2); err != nil || st.Photos != 0 {
		t.Errorf("empty batch: st=%+v err=%v", st, err)
	}
	// A duplicate mid-batch fails at its position; the prefix stays
	// inserted.
	batch := append(ds.Photos[40:44:44], ds.Photos[0]) // last photo already indexed
	st, err := e.InsertBatch(batch, 3)
	if err == nil {
		t.Fatal("duplicate photo in batch should fail")
	}
	if st.Photos != 4 {
		t.Errorf("committed prefix = %d photos, want 4", st.Photos)
	}
	if e.Len() != 44 {
		t.Errorf("Len = %d, want 44", e.Len())
	}
}

func TestBuildParallelValidation(t *testing.T) {
	if _, err := NewEngine(Config{IngestWorkers: 4}).Build(nil); err == nil {
		t.Error("empty corpus should fail")
	}
	ds := testDatasetCached(t)
	// workers <= 0 defaults to GOMAXPROCS and still works.
	e := NewEngine(Config{})
	if _, err := e.Build(ds.Photos[:20]); err != nil {
		t.Fatalf("workers=0: %v", err)
	}
	if e.Len() != 20 {
		t.Errorf("Len = %d, want 20", e.Len())
	}
}

func TestBuildParallelRejectsDuplicatePhotos(t *testing.T) {
	ds := testDatasetCached(t)
	e := NewEngine(Config{IngestWorkers: 2})
	photos := append(ds.Photos[:5:5], ds.Photos[4]) // duplicate ID
	if _, err := e.Build(photos); err == nil {
		t.Error("duplicate photo IDs should fail the build")
	}
}
