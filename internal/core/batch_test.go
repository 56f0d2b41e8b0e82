package core

import (
	"testing"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/simimg"
)

// TestQueryBatchMatchesSequential is the shard-determinism contract: over
// the seed workload, QueryBatch at any worker count must return exactly the
// sequential Query results — same IDs, same scores, same ordering — for
// every probe.
func TestQueryBatchMatchesSequential(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	qs, err := ds.Queries(10, 31)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*simimg.Image, len(qs))
	for i, q := range qs {
		imgs[i] = q.Probe
	}

	want := make([][]SearchResult, len(imgs))
	for i, img := range imgs {
		res, err := e.Query(img, 50)
		if err != nil {
			t.Fatalf("sequential Query %d: %v", i, err)
		}
		want[i] = res
	}

	for _, workers := range []int{0, 1, 3, 8} {
		batch := e.QueryBatch(imgs, 50, workers)
		if len(batch) != len(imgs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(batch), len(imgs))
		}
		for i, br := range batch {
			if br.Err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i, br.Err)
			}
			if len(br.Results) != len(want[i]) {
				t.Fatalf("workers=%d query %d: %d hits, sequential returned %d",
					workers, i, len(br.Results), len(want[i]))
			}
			for j := range br.Results {
				if br.Results[j] != want[i][j] {
					t.Fatalf("workers=%d query %d: result %d = %+v, sequential %+v",
						workers, i, j, br.Results[j], want[i][j])
				}
			}
			if br.Latency <= 0 {
				t.Errorf("workers=%d query %d: non-positive latency", workers, i)
			}
		}
	}
}

// TestQueryBatchEmptyAndErrors covers the edge shapes: empty batch, and a
// batch against an unbuilt engine reporting per-query errors.
func TestQueryBatchEmptyAndErrors(t *testing.T) {
	e := NewEngine(Config{})
	if out := e.QueryBatch(nil, 10, 4); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
	imgs := []*simimg.Image{simimg.New(32, 32), simimg.New(32, 32)}
	out := e.QueryBatch(imgs, 10, 2)
	for i, br := range out {
		if br.Err == nil {
			t.Errorf("query %d against unbuilt engine succeeded", i)
		}
	}
}

// TestQuerySummaryMatchesQueryBatch is the prepared-path contract:
// Summarize + ToSparse + QuerySummary must return exactly what QueryBatch
// returns for the same probes at every scoring-worker count — the hoisted
// front half computes the same summary the full pipeline would, and the
// back half is shared code.
func TestQuerySummaryMatchesQueryBatch(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	qs, err := ds.Queries(10, 47)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*simimg.Image, len(qs))
	for i, q := range qs {
		imgs[i] = q.Probe
	}
	full := e.QueryBatch(imgs, 50, 4)

	summaries := make([]*bloom.Sparse, len(imgs))
	for i, img := range imgs {
		f, err := e.Summarize(img)
		if err != nil {
			t.Fatalf("Summarize %d: %v", i, err)
		}
		summaries[i] = bloom.ToSparse(f)
	}

	for _, workers := range []int{1, 2, 8} {
		for i, ps := range summaries {
			if full[i].Err != nil {
				t.Fatalf("full path query %d: %v", i, full[i].Err)
			}
			res, err := e.QuerySummary(ps, 50, workers)
			if err != nil {
				t.Fatalf("workers=%d summary %d: %v", workers, i, err)
			}
			if len(res) != len(full[i].Results) {
				t.Fatalf("workers=%d summary %d: %d hits, full path returned %d",
					workers, i, len(res), len(full[i].Results))
			}
			for j := range res {
				if res[j] != full[i].Results[j] {
					t.Fatalf("workers=%d summary %d: result %d = %+v, full path %+v",
						workers, i, j, res[j], full[i].Results[j])
				}
			}
		}
	}

	// Edge shapes: nil summary, bad topK.
	if res, err := e.QuerySummary(nil, 10, 1); err != nil || res != nil {
		t.Errorf("nil summary: got (%v, %v), want (nil, nil)", res, err)
	}
	if _, err := e.QuerySummary(summaries[0], 0, 1); err == nil {
		t.Error("topK=0 accepted")
	}
}
