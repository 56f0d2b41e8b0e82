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
