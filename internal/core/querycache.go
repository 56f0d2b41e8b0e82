package core

import (
	"errors"
	"fmt"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/cache"
	"github.com/fastrepro/fast/internal/simimg"
)

// The tiered read-path cache.
//
// A FAST query is two halves: the FE+SM front half (detect interest points,
// describe them, Bloom-summarize — pure function of the probe pixels and the
// trained basis) and the SA+CHS back half (LSH candidates, flat-table
// fetches, Jaccard ranking — a function of the summary and the current index
// contents). The halves invalidate on different events, so they get
// different tiers:
//
//   - T1 (summary tier): raster fingerprint → sparse summary, the one form
//     the search back half reads. Never invalidated by index mutations;
//     only Build, which retrains the basis, resets it.
//   - T2 (result tier): (summary fingerprint, topK, view epoch) → ranked
//     results. Every mutation publishes a new view, and publishLocked stamps
//     each view with a fresh epoch; entries computed against older views
//     stop being addressable rather than being hunted down and purged.
//
// The invariant both tiers preserve is byte-identical answers: a cache hit
// returns exactly the slice an uncached query would have computed, at every
// cache size and around every mutation. querycache_test.go enforces it by
// sweeping cached engines against QueryUncached, the same search with both
// tiers bypassed.
//
// Epoch discipline: a query loads the published view once, keys T2 on that
// view's epoch and, on a miss, searches that same view. An epoch names
// exactly one view, so a cached result is a pure function of its key: a hit
// is exactly what searchView would compute against the view the query
// loaded. A query that overlaps a mutation answers from the pre-mutation
// view, which is a legal linearization.

// ConfigureCache swaps in freshly-emptied cache tiers with the given entry
// bounds (≤0 disables a tier). It is safe to call while queries run: the
// tier pointers are atomic, in-flight queries finish against the tier they
// loaded, and a disabled tier degrades to the uncached path. Answers are
// byte-identical at every setting.
func (e *Engine) ConfigureCache(summaryEntries, resultEntries int) {
	if summaryEntries < 0 {
		summaryEntries = 0
	}
	if resultEntries < 0 {
		resultEntries = 0
	}
	e.sumCacheCap.Store(int64(summaryEntries))
	e.resCacheCap.Store(int64(resultEntries))
	if summaryEntries > 0 {
		e.sumCache.Store(cache.New[*bloom.Sparse](summaryEntries))
	} else {
		e.sumCache.Store(nil)
	}
	if resultEntries > 0 {
		e.resCache.Store(cache.New[[]SearchResult](resultEntries))
	} else {
		e.resCache.Store(nil)
	}
}

// CacheConfig reports the configured tier bounds (0 = disabled). The serving
// layer uses it to carry cache settings across a snapshot-restore hot swap.
func (e *Engine) CacheConfig() (summaryEntries, resultEntries int) {
	return int(e.sumCacheCap.Load()), int(e.resCacheCap.Load())
}

// CacheStats is a point-in-time aggregate of both cache tiers plus the
// epoch of the published view. Disabled tiers report zeroes.
type CacheStats struct {
	Summary cache.Stats
	Result  cache.Stats
	Epoch   uint64
}

// CacheStats reports hit/miss/singleflight counters for both tiers.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{
		Summary: e.sumCache.Load().Stats(),
		Result:  e.resCache.Load().Stats(),
		Epoch:   e.PublishedEpoch(),
	}
}

// probeSummary produces the sparse summary for a probe raster, through T1
// when enabled, against the published view's basis — no engine lock. The T1
// key derives the view's basisGen so a summary memoized under a superseded
// basis (a query that overlapped a Build) can never be served after the
// retrain; stale-generation entries simply age out of the LRU. Misses are
// singleflighted per key. The returned summary may be shared with the cache
// and other queries; the search back half treats it as read-only.
func (e *Engine) probeSummary(img *simimg.Image) (*bloom.Sparse, error) {
	v := e.view.Load()
	if v == nil {
		return nil, errors.New("core: engine not built")
	}
	summarize := func() (*bloom.Sparse, error) {
		f, err := e.summarizeWith(v.pca, img)
		if err != nil {
			return nil, err
		}
		return bloom.ToSparse(f), nil
	}
	sc := e.sumCache.Load()
	if sc == nil {
		return summarize()
	}
	ps, _, err := sc.GetOrCompute(cache.ImageKey(img.W, img.H, img.Pix).Derive(v.basisGen), summarize)
	return ps, err
}

// searchCached runs the search back half on the published view, through
// T2 when enabled. Hits and computed results are both handed out as fresh
// copies so no caller can mutate a cached slice.
func (e *Engine) searchCached(ps *bloom.Sparse, topK, workers int) ([]SearchResult, error) {
	v := e.view.Load()
	if v == nil {
		return nil, errors.New("core: engine not built")
	}
	rc := e.resCache.Load()
	if rc == nil {
		return e.searchView(v, ps, topK, workers)
	}
	key := cache.SummaryKey(ps.M, ps.K, ps.Bits).Derive(uint64(topK), v.epoch)
	res, _, err := rc.GetOrCompute(key, func() ([]SearchResult, error) {
		return e.searchView(v, ps, topK, workers)
	})
	if err != nil {
		return nil, err
	}
	return append([]SearchResult(nil), res...), nil
}

// QueryUncached answers a probe while bypassing both cache tiers: FE+SM
// against the published view's basis, then the search back half on the
// published view — exactly what Query computes with both tiers disabled.
// The cache equivalence tests and bench/ compare cached answers against it,
// byte for byte.
func (e *Engine) QueryUncached(img *simimg.Image, topK int) ([]SearchResult, error) {
	if topK <= 0 {
		return nil, fmt.Errorf("core: topK must be positive, got %d", topK)
	}
	v := e.view.Load()
	if v == nil {
		return nil, errors.New("core: engine not built")
	}
	f, err := e.summarizeWith(v.pca, img)
	if err != nil {
		return nil, err
	}
	ps := bloom.ToSparse(f)
	if len(ps.Bits) == 0 {
		return nil, nil
	}
	return e.searchView(v, ps, topK, 1)
}
