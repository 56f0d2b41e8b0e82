package server_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/server"
)

// TestServeSoak hammers one server from four directions at once — queries,
// inserts followed by deletes, hot snapshots (validated by
// reloading them), and stats polls — to give the race detector every
// interleaving the serving layer promises to survive: Query readers
// against Insert/Delete writers against WriteTo under the engine's
// read lock. Run it under `go test -race` (the CI race job does).
func TestServeSoak(t *testing.T) {
	eng, ds := baseEngine(t)
	_, _, c := startServer(t, server.Config{Engine: eng})

	soak := 2 * time.Second
	queryClients := 4
	if testing.Short() {
		soak = 500 * time.Millisecond
		queryClients = 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), soak)
	defer cancel()

	qs, err := ds.Queries(4, 77)
	if err != nil {
		t.Fatal(err)
	}

	var queries, inserts, snapshots atomic.Int64
	errs := make(chan error, queryClients+3)
	var wg sync.WaitGroup
	running := func(err error) bool {
		// Work racing the deadline legitimately fails with a context error;
		// anything else is a real defect.
		if err == nil {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		errs <- err
		return false
	}

	for cl := 0; cl < queryClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				res, err := c.Query(ctx, qs[(cl+i)%len(qs)].Probe, 15)
				if !running(err) {
					return
				}
				if len(res) == 0 {
					errs <- errNoResults
					return
				}
				queries.Add(1)
			}
		}(cl)
	}

	// Mutator: insert fresh photos over the wire, then delete
	// them, so the index churns while staying bounded.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ctx.Err() == nil; i++ {
			p := ds.FreshPhoto(9_300_000+i, int64(i))
			if !running(c.Insert(ctx, p.ID, p.Img)) {
				return
			}
			inserts.Add(1)
			if !running(c.Delete(ctx, p.ID)) {
				return
			}
		}
	}()

	// Snapshotter: cut hot snapshots while everything above runs, and prove
	// each one is a consistent point-in-time image by reloading it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for ctx.Err() == nil {
			buf.Reset()
			if _, err := c.Snapshot(ctx, &buf); err != nil {
				running(err)
				return
			}
			if _, err := core.ReadEngine(bytes.NewReader(buf.Bytes())); err != nil {
				if ctx.Err() == nil {
					errs <- err
				}
				return
			}
			snapshots.Add(1)
		}
	}()

	// Stats poller: reads every counter the workers are writing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			if _, err := c.Stats(ctx); !running(err) {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("soak worker failed: %v", err)
	}
	if queries.Load() == 0 || inserts.Load() == 0 || snapshots.Load() == 0 {
		t.Fatalf("soak did not exercise all paths: %d queries, %d inserts, %d snapshots",
			queries.Load(), inserts.Load(), snapshots.Load())
	}
	t.Logf("soak: %d queries, %d insert/delete pairs, %d verified hot snapshots",
		queries.Load(), inserts.Load(), snapshots.Load())
}

var errNoResults = &emptyResultsError{}

type emptyResultsError struct{}

func (*emptyResultsError) Error() string { return "query returned no results during soak" }

// TestCacheChurnSoak is the epoch-invalidation soak: cached network queries
// race inserts, deletes and snapshot->restore hot swaps (every mutation kind
// that bumps the epoch or replaces the engine), then the index quiesces and
// every cached answer is compared element-for-element against a cold
// QueryUncached recompute. Byte-identical answers after every churn round is
// the result-tier contract; the churn phase itself is the -race workout.
func TestCacheChurnSoak(t *testing.T) {
	eng, ds := baseEngine(t)
	eng.ConfigureCache(512, 512)
	s, _, c := startServer(t, server.Config{Engine: eng})

	rounds, churn := 4, 300*time.Millisecond
	if testing.Short() {
		rounds, churn = 2, 100*time.Millisecond
	}
	qs, err := ds.Queries(6, 41)
	if err != nil {
		t.Fatal(err)
	}
	const topK = 15
	ctxBg := context.Background()

	var churnQueries, churnMutations, restores atomic.Int64
	for round := 0; round < rounds; round++ {
		// Churn workers run until a deadline but always let their in-flight
		// request COMPLETE (no context cancellation): an abandoned request
		// keeps mutating server-side after the client gives up, which would
		// leak churn into the quiesced verification below.
		deadline := time.Now().Add(churn)
		var wg sync.WaitGroup

		// Cached queries racing the mutators. Their answers are deliberately
		// not compared here — mid-mutation a cached answer may legally
		// reflect the state just before an overlapping write — they exist to
		// give the race detector the query-vs-epoch-bump interleavings.
		for cl := 0; cl < 2; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for i := 0; time.Now().Before(deadline); i++ {
					if _, err := c.Query(ctxBg, qs[(cl+i)%len(qs)].Probe, topK); err == nil {
						churnQueries.Add(1)
					}
				}
			}(cl)
		}

		// Mutator: insert/delete churn. Delete errors are tolerated — a
		// concurrent restore can legitimately roll an insert out from under
		// its delete (the photo then lingers, which the verification handles
		// by recomputing against the actual index state).
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			for i := uint64(0); time.Now().Before(deadline); i++ {
				p := ds.FreshPhoto(9_600_000+uint64(round)*10_000+i, int64(i))
				if c.Insert(ctxBg, p.ID, p.Img) == nil {
					churnMutations.Add(1)
				}
				_ = c.Delete(ctxBg, p.ID)
			}
		}(round)

		// Hot swapper: snapshot then restore, replacing the served engine
		// (fresh epoch, empty tiers) while cached queries are in flight.
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				buf.Reset()
				if _, err := c.Snapshot(ctxBg, &buf); err != nil {
					return
				}
				if err := c.Restore(ctxBg, bytes.NewReader(buf.Bytes())); err != nil {
					return
				}
				restores.Add(1)
				time.Sleep(20 * time.Millisecond)
			}
		}()

		wg.Wait()

		// Quiesced verification: with no writers running, a cached network
		// answer must equal a cold engine recompute exactly. Run the
		// comparisons concurrently so warm hits and singleflight leaders both
		// occur.
		verifyErrs := make(chan error, len(qs))
		for qi := range qs {
			wg.Add(1)
			go func(qi int) {
				defer wg.Done()
				probe := qs[qi].Probe
				want, err := s.Engine().QueryUncached(probe, topK)
				if err != nil {
					verifyErrs <- err
					return
				}
				for pass := 0; pass < 2; pass++ { // miss then hit
					got, err := c.Query(ctxBg, probe, topK)
					if err != nil {
						verifyErrs <- err
						return
					}
					if len(got) != len(want) {
						verifyErrs <- fmt.Errorf("round %d q %d pass %d: %d results, want %d",
							round, qi, pass, len(got), len(want))
						return
					}
					for i := range got {
						if got[i] != want[i] {
							verifyErrs <- fmt.Errorf("round %d q %d pass %d: result[%d] = %+v, want %+v",
								round, qi, pass, i, got[i], want[i])
							return
						}
					}
				}
			}(qi)
		}
		wg.Wait()
		close(verifyErrs)
		for err := range verifyErrs {
			t.Fatalf("cached answer diverged from cold recompute: %v", err)
		}
	}

	if churnQueries.Load() == 0 || churnMutations.Load() == 0 || restores.Load() == 0 {
		t.Fatalf("soak did not exercise all paths: %d queries, %d mutations, %d restores",
			churnQueries.Load(), churnMutations.Load(), restores.Load())
	}
	// The restore hot swap must have carried the cache configuration onto
	// the replacement engine, and the verification passes must have hit.
	if sn, rn := s.Engine().CacheConfig(); sn != 512 || rn != 512 {
		t.Fatalf("cache config lost across restore: (%d, %d)", sn, rn)
	}
	st := s.Stats()
	if st.SummaryCacheHits == 0 || st.ResultCacheHits == 0 {
		t.Fatalf("quiesced verification never hit the cache: %+v", st)
	}
	t.Logf("churn soak: %d racing queries, %d mutations, %d hot restores; summary hits %d, result hits %d, epoch %d",
		churnQueries.Load(), churnMutations.Load(), restores.Load(),
		st.SummaryCacheHits, st.ResultCacheHits, st.CacheEpoch)
}
