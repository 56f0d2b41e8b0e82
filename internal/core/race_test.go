package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/workload"
)

// TestConcurrentQueriesAndStats hammers the engine with parallel queries,
// SimCost reads and stats accesses; run with -race to validate the locking
// discipline.
func TestConcurrentQueriesAndStats(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	qs, err := ds.Queries(4, 61)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]*bloom.Sparse, len(qs))
	for i, q := range qs {
		sums[i] = probeSparse(t, e, q.Probe)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch w % 3 {
				case 0:
					if _, err := e.QuerySummary(sums[i%len(sums)], 30, 2); err != nil {
						errs <- err
						return
					}
				case 1:
					_ = e.SimCost()
					_ = e.Stats()
					_ = e.Len()
					_ = e.IndexBytes()
				case 2:
					if _, err := e.Query(qs[(i+1)%len(qs)].Probe, 10); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent access error: %v", err)
	}
}

// TestRaceQueryWhileMutating drives concurrent Query readers against
// Insert and Delete traffic plus stats readers — the serving shape, where
// every request runs Query on its own goroutine. Iteration counts shrink
// under -short so the -race CI job stays fast.
func TestRaceQueryWhileMutating(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	qs, err := ds.Queries(6, 91)
	if err != nil {
		t.Fatal(err)
	}
	rounds, churn := 3, 6
	if testing.Short() {
		rounds, churn = 1, 2
	}

	var answered atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	startQueryReaders(&wg, errs, e, qs, rounds, &answered)
	// One writer inserting fresh photos and deleting them again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churn; i++ {
			id := uint64(2_000_000 + i)
			if err := e.Insert(ds.FreshPhoto(id, int64(i))); err != nil {
				errs <- err
				return
			}
			if i%2 == 0 {
				if err := e.Delete(id); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	// One stats reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*4; i++ {
			_ = e.SimCost()
			_ = e.Stats()
			_ = e.IndexBytes()
			_ = e.Len()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query/mutate error: %v", err)
	}
	if answered.Load() == 0 {
		t.Error("no query answered")
	}
}

// TestRaceInsertBatchWhileQuerying runs the staged ingest pipeline against
// concurrent Query readers and stats readers: the FE+SM worker pool holds
// no engine lock, so queries must interleave cleanly with the ordered
// committer's short write sections. Run with -race.
func TestRaceInsertBatchWhileQuerying(t *testing.T) {
	ds := testDataset(t)
	split := len(ds.Photos) * 3 / 4
	e := NewEngine(Config{TableCapacity: 4 * len(ds.Photos)})
	if _, err := e.Build(ds.Photos[:split]); err != nil {
		t.Fatal(err)
	}
	qs, err := ds.Queries(4, 17)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 3
	if testing.Short() {
		rounds = 1
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Ingest worker: stream the held-out photos plus fresh ones in batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.InsertBatch(ds.Photos[split:], 3); err != nil {
			errs <- err
			return
		}
		for r := 0; r < rounds; r++ {
			fresh := make([]*simimg.Photo, 4)
			for i := range fresh {
				fresh[i] = ds.FreshPhoto(uint64(3_000_000+r*len(fresh)+i), int64(r*100+i))
			}
			if _, err := e.InsertBatch(fresh, 2); err != nil {
				errs <- err
				return
			}
		}
	}()
	var answered atomic.Int64
	startQueryReaders(&wg, errs, e, qs, rounds, &answered)
	// One stats reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*4; i++ {
			_ = e.SimCost()
			_ = e.Stats()
			_ = e.IndexBytes()
			_ = e.Len()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent ingest/query error: %v", err)
	}
	if e.Len() != len(ds.Photos)+rounds*4 {
		t.Errorf("Len = %d, want %d", e.Len(), len(ds.Photos)+rounds*4)
	}
	if answered.Load() == 0 {
		t.Error("no query answered")
	}
}

// startQueryReaders launches two goroutines that each run Query over every
// probe, rounds times, counting answers and reporting the first error.
func startQueryReaders(wg *sync.WaitGroup, errs chan<- error, e *Engine, qs []workload.Query, rounds int, answered *atomic.Int64) {
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, q := range qs {
					if _, err := e.Query(q.Probe, 25); err != nil {
						errs <- err
						return
					}
					answered.Add(1)
				}
			}
		}()
	}
}
