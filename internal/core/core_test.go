package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/cuckoo"
	"github.com/fastrepro/fast/internal/metrics"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/workload"
)

// testDataset builds a small deterministic corpus.
func testDataset(t *testing.T) *workload.Dataset {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		Name:        "core-test",
		Scenes:      6,
		Photos:      120,
		Subjects:    4,
		SubjectRate: 0.3,
		Resolution:  64,
		Seed:        11,
		SceneBase:   700,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

var (
	cachedDSOnce sync.Once
	cachedDS     *workload.Dataset
)

// testDatasetCached returns the shared corpus, generated once per test
// binary. Tests that only read the dataset (build engines over it, issue
// queries) use this to avoid regenerating 120 images per test.
func testDatasetCached(t *testing.T) *workload.Dataset {
	t.Helper()
	cachedDSOnce.Do(func() { cachedDS = testDataset(t) })
	return cachedDS
}

var (
	builtSnapOnce sync.Once
	builtSnap     []byte // WriteTo image of the default engine over the test corpus
)

// builtEngine returns a private default-config engine over the test corpus.
// Build spends ~1.5 s in FE on the 120 photos, so it runs once per test
// binary; every caller gets its own engine restored from that build's
// snapshot, which the round-trip tests pin as answering and serializing
// identically. Tests about Build itself (BuildStats, epochs, retraining)
// call Build directly.
func builtEngine(t *testing.T, ds *workload.Dataset) *Engine {
	t.Helper()
	if ds.Spec != testDatasetCached(t).Spec {
		return realBuild(t, ds)
	}
	builtSnapOnce.Do(func() {
		var buf bytes.Buffer
		if _, err := realBuild(t, ds).WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		builtSnap = buf.Bytes()
	})
	if builtSnap == nil {
		t.Fatal("the shared engine build failed in an earlier test")
	}
	e, err := ReadEngine(bytes.NewReader(builtSnap))
	if err != nil {
		t.Fatalf("ReadEngine: %v", err)
	}
	return e
}

func realBuild(t *testing.T, ds *workload.Dataset) *Engine {
	t.Helper()
	e := NewEngine(Config{})
	st, err := e.Build(ds.Photos)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if st.Photos != len(ds.Photos) {
		t.Fatalf("BuildStats.Photos = %d, want %d", st.Photos, len(ds.Photos))
	}
	if st.FeatureTime <= 0 || st.IndexTime <= 0 {
		t.Errorf("timing breakdown missing: %+v", st)
	}
	if st.Descriptors == 0 {
		t.Error("no descriptors extracted during build")
	}
	return e
}

func TestBuildValidation(t *testing.T) {
	e := NewEngine(Config{})
	if _, err := e.Build(nil); err == nil {
		t.Error("empty corpus should fail")
	}
	if err := e.Insert(&simimg.Photo{ID: 1, Img: simimg.New(64, 64)}); err == nil {
		t.Error("Insert before Build should fail")
	}
	if _, err := e.Query(simimg.New(64, 64), 5); err == nil {
		t.Error("Query before Build should fail")
	}
}

func TestBuildAndQueryEndToEnd(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	if e.Len() != len(ds.Photos) {
		t.Fatalf("Len = %d, want %d", e.Len(), len(ds.Photos))
	}

	qs, err := ds.Queries(12, 21)
	if err != nil {
		t.Fatal(err)
	}
	var acc metrics.Accuracy
	totalCand := 0
	for _, q := range qs {
		res, err := e.Query(q.Probe, 100)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		totalCand += len(res)
		ids := make([]uint64, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		acc.Add(metrics.ScoreRetrieval(ids, q.Relevant).Recall())
		// Results must be sorted by descending score.
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				t.Fatal("results not sorted by score")
			}
		}
	}
	if acc.Mean() < 0.3 {
		t.Errorf("mean scene recall %v too low for near-duplicate probes", acc.Mean())
	}
	if totalCand == 0 {
		t.Fatal("no candidates returned across all queries")
	}
}

func TestQueryNarrowsScope(t *testing.T) {
	// The headline property: FAST returns a small correlated group, not the
	// whole corpus, and the group is enriched in same-scene photos.
	ds := testDataset(t)
	e := builtEngine(t, ds)
	qs, err := ds.Queries(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		res, err := e.Query(q.Probe, len(ds.Photos))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			continue
		}
		sameScene := 0
		for _, r := range res {
			if q.Relevant[r.ID] {
				sameScene++
			}
		}
		frac := float64(sameScene) / float64(len(res))
		baseRate := float64(len(q.Relevant)) / float64(len(ds.Photos))
		if frac < baseRate {
			t.Errorf("scene %d: result enrichment %.2f below base rate %.2f",
				q.Scene, frac, baseRate)
		}
	}
}

func TestTopKLimit(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	qs, _ := ds.Queries(1, 2)
	res, err := e.Query(qs[0].Probe, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) > 3 {
		t.Errorf("topK violated: %d results", len(res))
	}
	if _, err := e.Query(qs[0].Probe, 0); err == nil {
		t.Error("topK 0 should fail")
	}
}

func TestInsertAfterBuild(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	rng := rand.New(rand.NewSource(9))
	scene := simimg.NewScene(700)
	p := simimg.RenderPhoto(999_999, scene, simimg.PhotoParams{Resolution: 64, Severity: 0.02}, rng)
	if err := e.Insert(p); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if e.Len() != len(ds.Photos)+1 {
		t.Errorf("Len = %d after insert", e.Len())
	}
	// Duplicate IDs rejected.
	if err := e.Insert(p); !errors.Is(err, ErrAlreadyIndexed) {
		t.Errorf("duplicate insert: %v, want ErrAlreadyIndexed", err)
	}
	// The new photo is findable via near-duplicate probes. LSH recall is
	// probabilistic per probe, so try a few independent probes and require
	// at least one hit (expected hit rate per probe is >0.9 at this
	// similarity).
	found := false
	for trial := 0; trial < 3 && !found; trial++ {
		probe := simimg.RenderPhoto(0, scene, simimg.PhotoParams{Resolution: 64, Severity: 0.02}, rng)
		res, err := e.Query(probe.Img, len(ds.Photos)+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.ID == 999_999 {
				found = true
			}
		}
	}
	if !found {
		t.Error("freshly inserted photo not retrievable by scene probes")
	}
}

// probeSparse runs FE+SM on img the way Query does and returns the summary
// QuerySummary takes.
func probeSparse(t testing.TB, e *Engine, img *simimg.Image) *bloom.Sparse {
	t.Helper()
	f, err := e.Summarize(img)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	return bloom.ToSparse(f)
}

func TestQueryParallelMatchesSerial(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	qs, _ := ds.Queries(4, 8)
	for _, q := range qs {
		ps := probeSparse(t, e, q.Probe)
		serial, err := e.QuerySummary(ps, 50, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := e.QuerySummary(ps, 50, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) != len(parallel) {
			t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("results differ at %d: %+v vs %+v", i, serial[i], parallel[i])
			}
		}
	}
}

// TestQuerySummaryMatchesQuery is the prepared-path contract: Summarize +
// ToSparse + QuerySummary must return exactly what sequential Query returns
// for the same probes at every scoring-worker count — the hoisted front
// half computes the same summary the full pipeline would, and the back half
// is shared code.
func TestQuerySummaryMatchesQuery(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	qs, err := ds.Queries(10, 47)
	if err != nil {
		t.Fatal(err)
	}
	full := make([][]SearchResult, len(qs))
	summaries := make([]*bloom.Sparse, len(qs))
	for i, q := range qs {
		if full[i], err = e.Query(q.Probe, 50); err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
		summaries[i] = probeSparse(t, e, q.Probe)
	}

	for _, workers := range []int{1, 2, 8} {
		for i, ps := range summaries {
			res, err := e.QuerySummary(ps, 50, workers)
			if err != nil {
				t.Fatalf("workers=%d summary %d: %v", workers, i, err)
			}
			if len(res) != len(full[i]) {
				t.Fatalf("workers=%d summary %d: %d hits, Query returned %d",
					workers, i, len(res), len(full[i]))
			}
			for j := range res {
				if res[j] != full[i][j] {
					t.Fatalf("workers=%d summary %d: result %d = %+v, Query %+v",
						workers, i, j, res[j], full[i][j])
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

func TestIndexBytesSmallVersusRawFeatures(t *testing.T) {
	// Table IV's mechanism: the FAST index is a small fraction of the raw
	// descriptor footprint.
	ds := testDataset(t)
	e := builtEngine(t, ds)
	idx := e.IndexBytes()
	if idx <= 0 {
		t.Fatal("IndexBytes not positive")
	}
	// Raw PCA-SIFT features: descriptors * dim * 8 bytes. Even the compact
	// PCA representation dwarfs the Bloom summaries.
	var raw int64
	for range ds.Photos {
		raw += 64 * 20 * 8 // MaxKeypoints * PCA dim * float64
	}
	if idx >= raw {
		t.Errorf("index %dB not smaller than raw features %dB", idx, raw)
	}
}

func TestStatsAccessors(t *testing.T) {
	e := NewEngine(Config{})
	if st := e.Stats(); st.Table.Inserts != 0 || st.LSH.Buckets != 0 || st.LSHShards != 0 || st.TableShards != 0 {
		t.Errorf("unbuilt engine has index stats: %+v", st)
	}
	ds := testDataset(t)
	e = builtEngine(t, ds)
	st := e.Stats()
	if st.Table.Inserts != len(ds.Photos) {
		t.Errorf("table inserts = %d, want %d", st.Table.Inserts, len(ds.Photos))
	}
	if st.LSH.TotalRefs == 0 {
		t.Error("LSH has no references after build")
	}
	if st.Table.Failures != 0 {
		t.Error("flat table failed during build at low load")
	}
}

func TestSummarizeConsistency(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	img := ds.Photos[0].Img
	a, err := e.Summarize(img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Summarize(img)
	if err != nil {
		t.Fatal(err)
	}
	if a.PopCount() != b.PopCount() {
		t.Error("Summarize not deterministic")
	}
}

func TestGroupExpandDisabled(t *testing.T) {
	ds := testDataset(t)
	expanded := NewEngine(Config{})
	plain := NewEngine(Config{GroupExpand: -1})
	if _, err := expanded.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	qs, _ := ds.Queries(8, 71)
	var withExp, without int
	for _, q := range qs {
		a, err := expanded.Query(q.Probe, len(ds.Photos))
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Query(q.Probe, len(ds.Photos))
		if err != nil {
			t.Fatal(err)
		}
		withExp += len(a)
		without += len(b)
	}
	// Expansion must never shrink the result set, and across a batch of
	// queries it should recover strictly more group members.
	if withExp < without {
		t.Fatalf("expansion returned fewer results: %d vs %d", withExp, without)
	}
	if withExp == without {
		t.Error("group expansion had no effect across 8 queries (suspicious)")
	}
}

// TestIndexLayoutIgnoresHost builds the same corpus at two core counts: the
// shard geometry, the flat table's placement work and the snapshot bytes
// must not depend on the machine. TableCapacity is large enough for the
// table to shard.
func TestIndexLayoutIgnoresHost(t *testing.T) {
	ds := testDatasetCached(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type layout struct {
		lshShards, tableShards int
		table                  cuckoo.Stats
		snapshot               []byte
	}
	build := func(procs int) layout {
		runtime.GOMAXPROCS(procs)
		e := NewEngine(Config{TableCapacity: 1 << 15})
		if _, err := e.Build(ds.Photos); err != nil {
			t.Fatalf("Build at GOMAXPROCS=%d: %v", procs, err)
		}
		st := e.Stats()
		l := layout{lshShards: st.LSHShards, tableShards: st.TableShards, table: st.Table}
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		l.snapshot = buf.Bytes()
		return l
	}
	one, four := build(1), build(4)
	if one.lshShards != four.lshShards || one.tableShards != four.tableShards {
		t.Errorf("Shards() = (%d, %d) at GOMAXPROCS=1, (%d, %d) at 4",
			one.lshShards, one.tableShards, four.lshShards, four.tableShards)
	}
	if one.tableShards < 2 {
		t.Errorf("table has %d shard(s); the test needs a sharded table", one.tableShards)
	}
	if one.table != four.table {
		t.Errorf("TableStats differ across core counts:\n 1: %+v\n 4: %+v", one.table, four.table)
	}
	if !bytes.Equal(one.snapshot, four.snapshot) {
		t.Error("WriteTo bytes differ across core counts")
	}
}
