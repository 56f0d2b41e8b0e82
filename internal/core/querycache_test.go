package core

import (
	"fmt"
	"testing"

	"github.com/fastrepro/fast/internal/workload"
)

// sameResults requires byte-identical answers: same length, same IDs, same
// exact float64 scores, same order.
func sameResults(t *testing.T, label string, got, want []SearchResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result[%d] = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// builtEngineCached builds an engine over the shared corpus with both cache
// tiers bounded as given.
func builtEngineCached(t *testing.T, sumN, resN int) (*Engine, *workload.Dataset) {
	t.Helper()
	ds := testDatasetCached(t)
	e := NewEngine(Config{SummaryCache: sumN, ResultCache: resN})
	if _, err := e.Build(ds.Photos); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return e, ds
}

// TestCachedAnswersMatchUncached is the tentpole invariant: at every cache
// size — including pathological ones that thrash — a cached query returns
// exactly what the uncached reference path returns, on cold and warm passes.
func TestCachedAnswersMatchUncached(t *testing.T) {
	for _, size := range []int{1, 2, 8, 512} {
		size := size
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			e, ds := builtEngineCached(t, size, size)
			qs, err := ds.Queries(8, 33)
			if err != nil {
				t.Fatal(err)
			}
			for _, topK := range []int{3, 50} {
				for pass := 0; pass < 2; pass++ { // cold, then warm
					for qi, q := range qs {
						want, err := e.QueryUncached(q.Probe, topK)
						if err != nil {
							t.Fatalf("QueryUncached: %v", err)
						}
						got, err := e.Query(q.Probe, topK)
						if err != nil {
							t.Fatalf("Query: %v", err)
						}
						sameResults(t, fmt.Sprintf("topK=%d pass=%d q=%d", topK, pass, qi), got, want)
					}
				}
			}
			// Thrashing sizes (smaller than the probe working set) legally
			// produce zero hits; the equivalence above is the contract there.
			if st := e.CacheStats(); size >= len(qs) && st.Summary.Hits == 0 {
				t.Error("warm pass produced no summary-tier hits")
			}
		})
	}
}

// TestCacheEquivalenceAroundMutations interleaves every mutation kind with
// warm cached queries and requires cached answers to track the mutated index
// exactly — the epoch-invalidation contract.
func TestCacheEquivalenceAroundMutations(t *testing.T) {
	e, ds := builtEngineCached(t, 256, 256)
	qs, err := ds.Queries(4, 57)
	if err != nil {
		t.Fatal(err)
	}
	const topK = 50
	verify := func(label string) {
		t.Helper()
		for qi, q := range qs {
			want, err := e.QueryUncached(q.Probe, topK)
			if err != nil {
				t.Fatalf("%s: QueryUncached: %v", label, err)
			}
			got, err := e.Query(q.Probe, topK)
			if err != nil {
				t.Fatalf("%s: Query: %v", label, err)
			}
			sameResults(t, fmt.Sprintf("%s q=%d", label, qi), got, want)
		}
	}

	verify("baseline")
	warmEpoch := e.PublishedEpoch()

	// Insert a fresh photo into an already-warm cache.
	fresh := ds.FreshPhoto(900001, 77)
	if err := e.Insert(fresh); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if e.PublishedEpoch() == warmEpoch {
		t.Fatal("Insert did not bump the epoch")
	}
	verify("after-insert")

	// Delete an indexed photo the warm results may reference.
	victim := ds.Photos[0].ID
	if err := e.Delete(victim); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	verify("after-delete")

	// A delete batch past the reclaim threshold moves entry slots; stale
	// cached results must not survive it.
	for _, p := range ds.Photos[1:70] {
		if err := e.Delete(p.ID); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	verify("after-reclaim")

	// Rebuild retrains the basis: both tiers must reset.
	preBuild := e.CacheStats()
	if preBuild.Summary.Entries == 0 {
		t.Fatal("summary tier unexpectedly empty before rebuild")
	}
	if _, err := e.Build(ds.Photos); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	post := e.CacheStats()
	if post.Summary.Entries != 0 || post.Result.Entries != 0 {
		t.Fatalf("rebuild left cached entries: %+v", post)
	}
	verify("after-rebuild")
}

// TestCacheTierCounters checks the observable cache behaviour: a repeated
// probe hits both tiers; a mutation retires the result tier but not the
// summary tier; disabling the caches falls back to the uncached path.
func TestCacheTierCounters(t *testing.T) {
	e, ds := builtEngineCached(t, 256, 256)
	qs, err := ds.Queries(1, 91)
	if err != nil {
		t.Fatal(err)
	}
	probe := qs[0].Probe

	if _, err := e.Query(probe, 10); err != nil {
		t.Fatal(err)
	}
	cold := e.CacheStats()
	if cold.Summary.Misses == 0 || cold.Result.Misses == 0 {
		t.Fatalf("cold query should miss both tiers: %+v", cold)
	}

	if _, err := e.Query(probe, 10); err != nil {
		t.Fatal(err)
	}
	warm := e.CacheStats()
	if warm.Summary.Hits != cold.Summary.Hits+1 {
		t.Fatalf("repeat probe missed the summary tier: %+v", warm)
	}
	if warm.Result.Hits != cold.Result.Hits+1 {
		t.Fatalf("repeat probe missed the result tier: %+v", warm)
	}

	// A mutation must retire result entries (epoch key) while the summary
	// tier — a pure function of pixels — keeps serving hits.
	if err := e.Insert(ds.FreshPhoto(900002, 13)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(probe, 10); err != nil {
		t.Fatal(err)
	}
	moved := e.CacheStats()
	if moved.Summary.Hits != warm.Summary.Hits+1 {
		t.Fatalf("summary tier lost its entry across an insert: %+v", moved)
	}
	if moved.Result.Hits != warm.Result.Hits {
		t.Fatalf("result tier served a stale entry across an insert: %+v", moved)
	}

	// Different topK must not alias the same cached result.
	r10, err := e.Query(probe, 10)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := e.Query(probe, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3) > 3 || (len(r10) > 3 && len(r3) == len(r10)) {
		t.Fatalf("topK=3 answer aliased topK=10 entry: %d vs %d results", len(r3), len(r10))
	}

	// Disabling the tiers mid-flight degrades to the uncached path.
	e.ConfigureCache(0, 0)
	if s, r := e.CacheConfig(); s != 0 || r != 0 {
		t.Fatalf("CacheConfig = (%d, %d) after disable", s, r)
	}
	want, err := e.QueryUncached(probe, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Query(probe, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "cache-off", got, want)
	if st := e.CacheStats(); st.Summary != (cacheStatsZero().Summary) || st.Result.Entries != 0 {
		t.Fatalf("disabled tiers report live state: %+v", st)
	}
}

func cacheStatsZero() CacheStats { return CacheStats{} }

// TestCachedResultIsolation ensures callers cannot corrupt a cached entry by
// mutating the slice they were handed.
func TestCachedResultIsolation(t *testing.T) {
	e, ds := builtEngineCached(t, 64, 64)
	qs, err := ds.Queries(1, 17)
	if err != nil {
		t.Fatal(err)
	}
	probe := qs[0].Probe
	first, err := e.Query(probe, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Skip("probe returned no results; nothing to corrupt")
	}
	want := append([]SearchResult(nil), first...)
	for i := range first {
		first[i] = SearchResult{ID: ^uint64(0), Score: -99}
	}
	second, err := e.Query(probe, 20)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "post-mutation hit", second, want)
}
