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
//   - T2 (result tier): (summary fingerprint, topK, epoch) → ranked results.
//     Every mutation bumps the epoch under the write lock; entries computed
//     against older index states stop being addressable rather than being
//     hunted down and purged.
//
// The invariant both tiers preserve is byte-identical answers: a cache hit
// returns exactly the slice an uncached query would have computed, at every
// cache size and around every mutation. querycache_test.go enforces it by
// sweeping cached engines against QueryUncached, the same search with both
// tiers bypassed.
//
// Epoch discipline: the T2 lookup key uses the engine epoch read *before*
// the search, but the computed result is stored under the epoch of the view
// the search actually ran against (searchView reports it). If a mutation
// slips in between, the result is filed under the state it actually saw and
// the optimistic lookup key simply never gets an entry. A hit on a
// concurrently-stale key is still linearizable — the mutation overlapped
// the query, so answering from the pre-mutation state is a legal ordering —
// and once the engine quiesces, a bumped epoch makes every old entry
// unreachable.

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

// resetCaches discards every cached entry while keeping the configured
// bounds, and bumps the epoch. Build calls it after retraining: T1 entries
// are summaries under the old basis, and the epoch bump retires T2 entries
// from the old index in the same stroke.
func (e *Engine) resetCaches() {
	e.epoch.Add(1)
	e.ConfigureCache(e.CacheConfig())
}

// CacheStats is a point-in-time aggregate of both cache tiers plus the
// current index epoch. Disabled tiers report zeroes.
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
		Epoch:   e.epoch.Load(),
	}
}

// Epoch returns the current index-mutation epoch.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

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

// searchCached runs the search back half through T2 when enabled. Hits and
// computed results are both handed out as fresh copies so no caller can
// mutate a cached slice.
func (e *Engine) searchCached(ps *bloom.Sparse, topK, workers int) ([]SearchResult, error) {
	rc := e.resCache.Load()
	if rc == nil {
		out, _, err := e.searchView(ps, topK, workers)
		return out, err
	}
	base := cache.SummaryKey(ps.M, ps.K, ps.Bits)
	if v, ok := rc.Get(base.Derive(uint64(topK), e.epoch.Load())); ok {
		return append([]SearchResult(nil), v...), nil
	}
	// Miss: singleflight the computation per optimistic key, but store the
	// result under the epoch the search actually observed (see the epoch
	// discipline note above) — which is why this is Do+Add, not GetOrCompute.
	v, _, err := rc.Do(base.Derive(uint64(topK), e.epoch.Load()), func() ([]SearchResult, error) {
		out, epoch, err := e.searchView(ps, topK, workers)
		if err != nil {
			return nil, err
		}
		rc.Add(base.Derive(uint64(topK), epoch), out)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return append([]SearchResult(nil), v...), nil
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
	out, _, err := e.searchView(ps, topK, 1)
	return out, err
}
