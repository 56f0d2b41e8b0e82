// Package driver replays query workloads against search pipelines from
// many concurrent clients — the paper's evaluation issues requests
// "simultaneously ... from 500 clients". It sits above both the workload
// generator and the pipelines, collecting latency and retrieval-quality
// statistics per run.
package driver

import (
	"fmt"
	"sync"
	"time"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/metrics"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/workload"
)

// Driver replays a query workload against a pipeline from many concurrent
// clients. Each client loops over its share of the query stream, recording
// per-query latency and retrieval quality.
type Driver struct {
	// Clients is the number of concurrent issuers; 0 means 8 (a laptop-
	// scale stand-in for the paper's 500).
	Clients int
	// TopK is the per-query result budget; 0 means 50.
	TopK int
}

// DriverResult aggregates a replay.
type DriverResult struct {
	Latency    metrics.Summary
	Recall     float64 // mean scene recall over all queries
	Queries    int
	Failures   int     // queries that returned an error
	Throughput float64 // completed queries per second of wall time
	Elapsed    time.Duration
}

// Run replays the queries against p. Geo hints are attached for tag-based
// schemes. It returns an error only for setup problems; per-query errors
// are counted in Failures.
func (d Driver) Run(p core.Pipeline, ds *workload.Dataset, queries []workload.Query) (DriverResult, error) {
	if p == nil || ds == nil {
		return DriverResult{}, fmt.Errorf("workload: driver needs a pipeline and dataset")
	}
	if len(queries) == 0 {
		return DriverResult{}, fmt.Errorf("workload: driver needs at least one query")
	}
	clients := d.Clients
	if clients <= 0 {
		clients = 8
	}
	if clients > len(queries) {
		clients = len(queries)
	}
	topK := d.TopK
	if topK <= 0 {
		topK = 50
	}

	// Pre-resolve geo hints once (scene → a capture location).
	locs := make(map[simimg.SceneID]*simimg.GeoPoint)
	for _, q := range queries {
		if _, ok := locs[q.Scene]; ok {
			continue
		}
		for _, ph := range ds.Photos {
			if ph.Scene == q.Scene {
				loc := ph.Loc
				locs[q.Scene] = &loc
				break
			}
		}
	}

	lat := metrics.NewLatency()
	var acc metrics.Accuracy
	var failures int
	var mu sync.Mutex

	start := time.Now()
	var wg sync.WaitGroup
	work := make(chan int)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range work {
				q := queries[qi]
				probe := core.Probe{Img: q.Probe, Loc: locs[q.Scene]}
				t0 := time.Now()
				res, err := p.Search(probe, topK)
				elapsed := time.Since(t0)
				mu.Lock()
				if err != nil {
					failures++
				} else {
					lat.Record(elapsed)
					ids := make([]uint64, len(res))
					for i, r := range res {
						ids[i] = r.ID
					}
					acc.Add(metrics.ScoreRetrieval(ids, q.Relevant).Recall())
				}
				mu.Unlock()
			}
		}()
	}
	for qi := range queries {
		work <- qi
	}
	close(work)
	wg.Wait()

	elapsed := time.Since(start)
	return DriverResult{
		Latency:    lat.Summarize(),
		Recall:     acc.Mean(),
		Queries:    len(queries),
		Failures:   failures,
		Throughput: throughput(len(queries)-failures, elapsed),
		Elapsed:    elapsed,
	}, nil
}

// throughput converts a completion count and wall time into queries/sec.
func throughput(completed int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(completed) / elapsed.Seconds()
}

// IngestResult aggregates one ingest replay: wall time and photos/sec of
// streaming a photo batch into a built engine, plus the engine's own
// per-stage cost split.
type IngestResult struct {
	Photos     int
	Elapsed    time.Duration
	Throughput float64 // photos per second of wall time
	Stats      core.BuildStats
}

// RunIngest streams photos into a built engine through the staged ingest
// pipeline (Engine.InsertBatch) at the given FE+SM worker count (0 means
// GOMAXPROCS) and reports wall-clock ingest throughput — the arrival rate
// the index sustains while staying queryable, the near-real-time half of
// the paper's evaluation.
func (d Driver) RunIngest(e *core.Engine, photos []*simimg.Photo, workers int) (IngestResult, error) {
	if e == nil {
		return IngestResult{}, fmt.Errorf("workload: ingest driver needs an engine")
	}
	if len(photos) == 0 {
		return IngestResult{}, fmt.Errorf("workload: ingest driver needs at least one photo")
	}
	start := time.Now()
	st, err := e.InsertBatch(photos, workers)
	elapsed := time.Since(start)
	if err != nil {
		return IngestResult{}, err
	}
	return IngestResult{
		Photos:     st.Photos,
		Elapsed:    elapsed,
		Throughput: throughput(st.Photos, elapsed),
		Stats:      st,
	}, nil
}

// RunBatch replays the queries through the engine's batch path: one
// QueryBatch call fans the whole stream across a worker pool sized by
// Clients, with per-query latency recorded into a metrics.Histogram (the
// fixed-memory collector long-running drivers use) instead of the
// sample-keeping Latency. Results are identical to per-query Search calls;
// only the concurrency shape differs — this is the path a serving front-end
// uses after the sharded-query-engine change.
//
// The geo-hint resolution of Run is skipped: the FAST engine is
// content-based and ignores hints.
func (d Driver) RunBatch(e *core.Engine, ds *workload.Dataset, queries []workload.Query) (DriverResult, error) {
	if e == nil || ds == nil {
		return DriverResult{}, fmt.Errorf("workload: batch driver needs an engine and dataset")
	}
	if len(queries) == 0 {
		return DriverResult{}, fmt.Errorf("workload: driver needs at least one query")
	}
	clients := d.Clients
	if clients <= 0 {
		clients = 8
	}
	topK := d.TopK
	if topK <= 0 {
		topK = 50
	}

	imgs := make([]*simimg.Image, len(queries))
	for i, q := range queries {
		imgs[i] = q.Probe
	}

	hist := metrics.NewHistogram()
	start := time.Now()
	batch := e.QueryBatch(imgs, topK, clients, hist)
	elapsed := time.Since(start)

	var acc metrics.Accuracy
	failures := 0
	for i, br := range batch {
		if br.Err != nil {
			failures++
			continue
		}
		ids := make([]uint64, len(br.Results))
		for j, r := range br.Results {
			ids[j] = r.ID
		}
		acc.Add(metrics.ScoreRetrieval(ids, queries[i].Relevant).Recall())
	}

	return DriverResult{
		Latency:    hist.Summarize(),
		Recall:     acc.Mean(),
		Queries:    len(queries),
		Failures:   failures,
		Throughput: throughput(len(queries)-failures, elapsed),
		Elapsed:    elapsed,
	}, nil
}

// PreparedBatchResult is a RunBatchPrepared replay: the timed region
// covers only the search back half, with the front half's cost reported
// separately so serialization effects and per-query FE cost can be told
// apart.
type PreparedBatchResult struct {
	DriverResult
	// PrepElapsed is the total FE+SM time spent preparing the summaries
	// (outside the timed region); PrepMean is per query.
	PrepElapsed time.Duration
	PrepMean    time.Duration
}

// RunBatchPrepared is RunBatch with the query front half (FE+SM) hoisted
// out of the timed region: every probe's summary is computed once up
// front, then the timed QuerySummaryBatch call replays only the search
// back half (SA+CHS+ranking) across the worker pool. Because the back
// half is what the lock-free read path lets the pool parallelize,
// this is the measurement that shows worker scaling — RunBatch's numbers
// are dominated by per-query FE, which is embarrassingly parallel but
// CPU-bound, so on few-core hosts it flattens the curve and hides
// search-path regressions.
//
// Results are identical to RunBatch's: the prepared summaries are exactly
// what the full pipeline computes per probe.
func (d Driver) RunBatchPrepared(e *core.Engine, ds *workload.Dataset, queries []workload.Query) (PreparedBatchResult, error) {
	if e == nil || ds == nil {
		return PreparedBatchResult{}, fmt.Errorf("workload: batch driver needs an engine and dataset")
	}
	if len(queries) == 0 {
		return PreparedBatchResult{}, fmt.Errorf("workload: driver needs at least one query")
	}
	clients := d.Clients
	if clients <= 0 {
		clients = 8
	}
	topK := d.TopK
	if topK <= 0 {
		topK = 50
	}

	// Untimed front half: FE+SM once per probe.
	prepStart := time.Now()
	summaries := make([]*bloom.Sparse, len(queries))
	for i, q := range queries {
		f, err := e.Summarize(q.Probe)
		if err != nil {
			return PreparedBatchResult{}, fmt.Errorf("workload: preparing summary %d: %w", i, err)
		}
		summaries[i] = bloom.ToSparse(f)
	}
	prepElapsed := time.Since(prepStart)

	hist := metrics.NewHistogram()
	start := time.Now()
	batch := e.QuerySummaryBatch(summaries, topK, clients, hist)
	elapsed := time.Since(start)

	var acc metrics.Accuracy
	failures := 0
	for i, br := range batch {
		if br.Err != nil {
			failures++
			continue
		}
		ids := make([]uint64, len(br.Results))
		for j, r := range br.Results {
			ids[j] = r.ID
		}
		acc.Add(metrics.ScoreRetrieval(ids, queries[i].Relevant).Recall())
	}

	return PreparedBatchResult{
		DriverResult: DriverResult{
			Latency:    hist.Summarize(),
			Recall:     acc.Mean(),
			Queries:    len(queries),
			Failures:   failures,
			Throughput: throughput(len(queries)-failures, elapsed),
			Elapsed:    elapsed,
		},
		PrepElapsed: prepElapsed,
		PrepMean:    prepElapsed / time.Duration(len(queries)),
	}, nil
}
