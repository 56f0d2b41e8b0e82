package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/simimg"
)

// BatchResult is one query's outcome within a QueryBatch call, positionally
// aligned with the input probes.
type BatchResult struct {
	Results []SearchResult
	Err     error
	Latency time.Duration // wall time of this query, including FE+SM
}

// QueryBatch answers many probe images concurrently by fanning them across
// a pool of workers (0 means GOMAXPROCS). Each worker pulls the next
// unclaimed probe and runs the full single-query pipeline on it with one
// scoring thread, so parallelism comes from query-level fan-out over the
// shared read view rather than from splitting one query — the serving shape
// of the paper's 500-concurrent-client evaluation.
//
// Results are deterministic: every query is processed exactly as a
// sequential Query call would process it, so result IDs, scores and ranking
// are identical to the sequential path regardless of the worker count.
//
// Failed queries carry their error in the corresponding BatchResult.
func (e *Engine) QueryBatch(imgs []*simimg.Image, topK, workers int) []BatchResult {
	out := make([]BatchResult, len(imgs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(imgs) {
		workers = len(imgs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(imgs) {
					return
				}
				t0 := time.Now()
				res, err := e.queryRecovering(imgs[i], topK)
				out[i] = BatchResult{Results: res, Err: err, Latency: time.Since(t0)}
			}
		}()
	}
	wg.Wait()
	return out
}

// QuerySummary answers a prepared probe summary through the search back
// half only (SA candidate collection, CHS fetch, ranking), skipping FE+SM
// entirely, with the given number of candidate-scoring workers (the
// multicore path of Figure 7). It returns the exact results a full Query
// of the originating probe would return, at every worker count: Summarize +
// bloom.ToSparse + QuerySummary ≡ Query. A summary with no set bits answers
// nil: a featureless probe has nothing to aggregate on.
func (e *Engine) QuerySummary(ps *bloom.Sparse, topK, workers int) ([]SearchResult, error) {
	if topK <= 0 {
		return nil, fmt.Errorf("core: topK must be positive, got %d", topK)
	}
	if ps == nil || len(ps.Bits) == 0 {
		return nil, nil
	}
	return e.searchCached(ps, topK, workers)
}

// queryRecovering runs one query of a batch, converting a panic (e.g. from
// a malformed image that slipped past upstream validation) into that
// query's error. The panic would otherwise unwind a batch worker goroutine,
// where no caller — in the serving tier, no net/http recover — can contain
// it, taking down the whole process instead of one query.
func (e *Engine) queryRecovering(img *simimg.Image, topK int) (res []SearchResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("core: query panicked: %v", p)
		}
	}()
	return e.Query(img, topK)
}
