// Package fast_test benchmarks every evaluation artifact of the paper: one
// testing.B benchmark per table and figure, over a shared small corpus.
// `go test -bench=. -benchmem` at the repository root reports the
// data-structure and pipeline costs that the fastbench harness projects to
// cluster scale.
package fast_test

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/fastrepro/fast/internal/baseline"
	"github.com/fastrepro/fast/internal/chunk"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/cuckoo"
	"github.com/fastrepro/fast/internal/dedup"
	"github.com/fastrepro/fast/internal/energy"
	"github.com/fastrepro/fast/internal/kdtree"
	"github.com/fastrepro/fast/internal/lsi"
	"github.com/fastrepro/fast/internal/vectorize"
	"github.com/fastrepro/fast/internal/workload"
)

var (
	benchOnce    sync.Once
	benchDS      *workload.Dataset
	benchQueries []workload.Query
	benchErr     error
)

// benchData lazily generates the corpus shared by the benchmarks and the
// root integration tests.
func benchData(tb testing.TB) (*workload.Dataset, []workload.Query) {
	tb.Helper()
	benchOnce.Do(func() {
		benchDS, benchErr = workload.Generate(workload.Spec{
			Name:        "bench",
			Scenes:      6,
			Photos:      96,
			Subjects:    4,
			SubjectRate: 0.25,
			Resolution:  64,
			Seed:        77,
			SceneBase:   8000,
		})
		if benchErr == nil {
			benchQueries, benchErr = benchDS.Queries(8, 5)
		}
	})
	if benchErr != nil {
		tb.Fatalf("bench corpus: %v", benchErr)
	}
	return benchDS, benchQueries
}

func buildPipeline(b *testing.B, mk func() core.Pipeline) core.Pipeline {
	b.Helper()
	ds, _ := benchData(b)
	p := mk()
	if _, err := p.Build(ds.Photos); err != nil {
		b.Fatalf("build: %v", err)
	}
	return p
}

// --- Figure 3: index construction ---

func benchmarkBuild(b *testing.B, mk func() core.Pipeline) {
	ds, _ := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := mk()
		if _, err := p.Build(ds.Photos); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ds.Photos)), "photos/op")
}

func BenchmarkFig3IndexConstruction(b *testing.B) {
	b.Run("FAST", func(b *testing.B) {
		benchmarkBuild(b, func() core.Pipeline { return core.NewEngine(core.Config{}) })
	})
	b.Run("SIFT", func(b *testing.B) {
		benchmarkBuild(b, func() core.Pipeline { return baseline.NewSIFT() })
	})
	b.Run("PCA-SIFT", func(b *testing.B) {
		benchmarkBuild(b, func() core.Pipeline { return baseline.NewPCASIFT() })
	})
	b.Run("RNPE", func(b *testing.B) {
		benchmarkBuild(b, func() core.Pipeline { return baseline.NewRNPE() })
	})
}

// --- Figure 4 / Table III: query latency and accuracy path ---

func benchmarkQuery(b *testing.B, p core.Pipeline) {
	ds, qs := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		probe := core.Probe{Img: q.Probe}
		if p.Name() == "RNPE" {
			for _, ph := range ds.Photos {
				if ph.Scene == q.Scene {
					loc := ph.Loc
					probe.Loc = &loc
					break
				}
			}
		}
		if _, err := p.Search(probe, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Query(b *testing.B) {
	b.Run("FAST", func(b *testing.B) {
		benchmarkQuery(b, buildPipeline(b, func() core.Pipeline { return core.NewEngine(core.Config{}) }))
	})
	b.Run("SIFT", func(b *testing.B) {
		benchmarkQuery(b, buildPipeline(b, func() core.Pipeline { return baseline.NewSIFT() }))
	})
	b.Run("PCA-SIFT", func(b *testing.B) {
		benchmarkQuery(b, buildPipeline(b, func() core.Pipeline { return baseline.NewPCASIFT() }))
	})
	b.Run("RNPE", func(b *testing.B) {
		benchmarkQuery(b, buildPipeline(b, func() core.Pipeline { return baseline.NewRNPE() }))
	})
}

// --- Table IV: space overhead ---

func BenchmarkTable4SpaceOverhead(b *testing.B) {
	fast := buildPipeline(b, func() core.Pipeline { return core.NewEngine(core.Config{}) })
	sift := buildPipeline(b, func() core.Pipeline { return baseline.NewSIFT() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fast.IndexBytes()
		_ = sift.IndexBytes()
	}
	b.ReportMetric(float64(fast.IndexBytes()), "fast-bytes")
	b.ReportMetric(float64(fast.IndexBytes())/float64(sift.IndexBytes()), "fast/sift-ratio")
}

// --- Figure 5: insertion ---

func BenchmarkFig5Insert(b *testing.B) {
	run := func(b *testing.B, mk func() core.Pipeline) {
		ds, _ := benchData(b)
		p := mk()
		if _, err := p.Build(ds.Photos); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			photo := ds.FreshPhoto(uint64(1_000_000+i), 9)
			if err := p.Insert(photo); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("FAST", func(b *testing.B) { run(b, func() core.Pipeline { return core.NewEngine(core.Config{}) }) })
	b.Run("SIFT", func(b *testing.B) { run(b, func() core.Pipeline { return baseline.NewSIFT() }) })
	b.Run("PCA-SIFT", func(b *testing.B) { run(b, func() core.Pipeline { return baseline.NewPCASIFT() }) })
	b.Run("RNPE", func(b *testing.B) { run(b, func() core.Pipeline { return baseline.NewRNPE() }) })
}

// --- Figure 6: cuckoo insertion under load ---

func BenchmarkFig6CuckooInsert(b *testing.B) {
	const capacity = 1 << 16
	b.Run("standard", func(b *testing.B) {
		tb, _ := cuckoo.NewStandard(capacity, 0, 1)
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tb.Len() > capacity*45/100 {
				b.StopTimer()
				tb, _ = cuckoo.NewStandard(capacity, 0, int64(i))
				b.StartTimer()
			}
			_ = tb.Insert(rng.Uint64()|1, 1)
		}
	})
	b.Run("flat", func(b *testing.B) {
		tb, _ := cuckoo.NewFlat(capacity, cuckoo.DefaultNeighborhood, 0, 1)
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tb.Len() > capacity*90/100 {
				b.StopTimer()
				tb, _ = cuckoo.NewFlat(capacity, cuckoo.DefaultNeighborhood, 0, int64(i))
				b.StartTimer()
			}
			_ = tb.Insert(rng.Uint64()|1, 1)
		}
	})
}

// --- Figure 7: parallel flat-table lookups ---

func BenchmarkFig7ParallelLookup(b *testing.B) {
	const capacity = 1 << 18
	flat, _ := cuckoo.NewFlat(capacity, cuckoo.DefaultNeighborhood, 0, 3)
	rng := rand.New(rand.NewSource(4))
	keys := make([]uint64, capacity/2)
	for i := range keys {
		keys[i] = rng.Uint64() | 1
		if err := flat.Insert(keys[i], uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	batch := keys[:4096]
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "workers-1", 2: "workers-2", 4: "workers-4", 8: "workers-8"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flat.LookupBatch(batch, workers)
			}
			b.ReportMetric(float64(len(batch)), "lookups/op")
		})
	}
}

// --- Concurrent query engine: batch throughput ---

// --- Staged parallel ingest pipeline: build and batch-insert throughput ---

// --- Figure 8: smartphone-side dedup and chunking ---

func BenchmarkFig8aDedupCheck(b *testing.B) {
	ds, _ := benchData(b)
	d := dedup.NewDetector(dedup.Config{})
	// Pre-load some summaries.
	for _, p := range ds.Photos[:16] {
		if _, err := d.Check(p.Img); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Check(ds.Photos[16+i%(len(ds.Photos)-16)].Img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8aChunking(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 256<<10)
	rng.Read(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chunk.CDC(data, chunk.CDCConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8bEnergyModel(b *testing.B) {
	m := energy.DefaultWiFi()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transmission(int64(i%10) << 20)
	}
}

// --- Core module micro-benchmarks ---

// --- Table I substrate micro-benchmarks ---

func BenchmarkTable1KDTreeNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]kdtree.Point, 10000)
	for i := range pts {
		v := make([]float64, 8)
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		pts[i] = kdtree.Point{Vec: v, ID: uint64(i + 1)}
	}
	tr, err := kdtree.Build(pts)
	if err != nil {
		b.Fatal(err)
	}
	q := []float64{50, 50, 50, 50, 50, 50, 50, 50}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Nearest(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1LSIQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	const n, dim = 2000, 24
	ids := make([]uint64, n)
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		ids[i] = uint64(i + 1)
		vecs[i] = v
	}
	ix, err := lsi.Build(ids, vecs, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Query(vecs[i%n], 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModuleVectorize(b *testing.B) {
	schema, err := vectorize.NewSchema([]vectorize.Field{
		{Name: "size", Kind: vectorize.LogNumeric},
		{Name: "owner", Kind: vectorize.Categorical, Dims: 8},
		{Name: "path", Kind: vectorize.Text, Dims: 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	rec := vectorize.Record{"size": 12345.0, "owner": "alice", "path": "projects alpha src main"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schema.Vector(rec); err != nil {
			b.Fatal(err)
		}
	}
}
