package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/core"
)

// runSearchTiered: an in-process engine whose corpus is mostly synthetic
// summaries, most of them migrated to the disk tier. After Build, feature
// extraction does nothing: LSH probe, cuckoo lookup, packed-Jaccard
// scoring, group expansion and the hot/cold merge do all the work, at a
// corpus far above the repository's committed baselines.
func runSearchTiered(r *run) error {
	const (
		nScenes    = 64
		realN      = 1500
		synthN     = 18500
		coldTarget = 16384
		coldBatch  = 2048
		probesN    = 1000
		redraw     = 0.15
		churnPer   = 20
		timedN     = 5500 // the last synthetic entries, ingested on the clock
		ingestSegs = 11
	)
	rng := rand.New(rand.NewSource(r.seed))
	c := newCorpus(nScenes)
	base := c.base()
	real := append(base, c.seeded(rng, realN-baseN)...)
	ladderImgs := loadProbes(rng, real, ladderProbes)
	r.fp.photos(real)
	r.fp.probes(ladderImgs)
	r.heapBaseline()

	total := realN + synthN + snapshotRounds*churnPer
	cfg := core.Config{TableCapacity: 2 * (total + 1000), IngestWorkers: r.callers}
	eng, err := buildEngine(cfg, base, real[baseN:], r.callers)
	if err != nil {
		return err
	}

	// Synthetic entries: a stored photo's summary with 15 % of its set
	// bits re-drawn. They are near-duplicates of real entries, so buckets
	// and candidate lists fill up the way a large correlated corpus would.
	realSums := make([]*bloom.Sparse, 0, realN)
	for _, p := range real {
		if s, ok := eng.SummaryOf(p.ID); ok && len(s.Bits) > 0 {
			realSums = append(realSums, s)
		}
	}
	if len(realSums) == 0 {
		return fmt.Errorf("no featured photo in the built corpus")
	}
	synth := make([]*bloom.Sparse, synthN+snapshotRounds*churnPer)
	for i := range synth {
		synth[i] = redrawSummary(rng, realSums[rng.Intn(len(realSums))], redraw)
		r.fp.summary(synth[i])
	}
	churn := synth[synthN:]
	// Probes are summaries too — FE stays out of the timed phases.
	mkProbes := func(n int) []*bloom.Sparse {
		out := make([]*bloom.Sparse, n)
		for i := range out {
			var src *bloom.Sparse
			if j := rng.Intn(len(realSums) + synthN); j < len(realSums) {
				src = realSums[j]
			} else {
				src = synth[j-len(realSums)]
			}
			out[i] = redrawSummary(rng, src, redraw)
			r.fp.summary(out[i])
		}
		return out
	}
	probes := mkProbes(probesN)
	checks := mkProbes(checksN)

	// Ingest through InsertSummary: SA + CHS + view publish only. The bulk
	// is set-up; the last timedN entries go in on the clock, so the window
	// is left to the query phase.
	for i := 0; i < synthN-timedN; i++ {
		if err := eng.InsertSummary(syntheticIDBase+uint64(i), synth[i]); err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
	}
	lats := make([]time.Duration, 0, timedN)
	var ingestErr error
	r.phase(func() {
		for i := synthN - timedN; i < synthN; i++ {
			t0 := time.Now()
			if err := eng.InsertSummary(syntheticIDBase+uint64(i), synth[i]); err != nil {
				ingestErr = err
				return
			}
			lats = append(lats, time.Since(t0))
		}
	})
	if ingestErr != nil {
		return fmt.Errorf("ingest: %w", ingestErr)
	}
	r.count("ingest_summary", timedN, 0)
	perSec, p50 := countedRates(lats, ingestSegs)
	r.set("ingest_photos_per_s", perSec)
	r.set("insert_p50_ms", p50)

	// Timed snapshots of the mutating index (all entries still in RAM).
	g := newGenerations(r.tmp, "tiered.fast")
	var snapP50 float64
	var snapErr error
	r.phase(func() {
		snapP50, _, snapErr = snapshotPhase(eng, g, func(round int) error {
			for i, s := range churn[round*churnPer : (round+1)*churnPer] {
				id := syntheticIDBase + uint64(synthN+round*churnPer+i)
				if err := eng.InsertSummary(id, s); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if snapErr != nil {
		return fmt.Errorf("snapshot: %w", snapErr)
	}
	r.count("snapshot", snapshotRounds, 0)
	r.set("store.snapshot_save_ms", snapP50)
	synth, churn = nil, nil // inputs are indexed now; only the engine holds them

	// Ground truth and the hot-only reference answers, taken while every
	// entry is still in RAM.
	exact := bruteForceTopK(eng, checks)
	want := make([][]core.SearchResult, len(checks))
	for i, ps := range checks {
		res, err := eng.QuerySummary(ps, topK, 1)
		if err != nil {
			return fmt.Errorf("reference query: %w", err)
		}
		want[i] = res
	}

	// Attach the disk tier and freeze the oldest entries into it.
	if _, err := eng.EnableColdTier(filepath.Join(r.tmp, "cold"), 0, coldBatch); err != nil {
		return fmt.Errorf("cold tier: %w", err)
	}
	defer eng.CloseColdTier()
	t0 := time.Now()
	for moved := 0; moved < coldTarget; {
		n, err := eng.MigrateCold(coldBatch)
		if err != nil {
			return fmt.Errorf("migrate: %w", err)
		}
		if n == 0 {
			return fmt.Errorf("migration stalled at %d of %d entries", moved, coldTarget)
		}
		moved += n
	}
	migrate := time.Since(t0)
	cold := eng.ColdStats()

	// Timed queries through the search back half only.
	r.closedQueryPhase(queryOps{
		plain: func(_, seq int) bool {
			_, err := eng.QuerySummary(probes[seq%len(probes)], topK, 1)
			return err == nil
		},
		traced: func(_, seq int) bool {
			var err error
			r.tr.do("core.search", r.tr.newID(), 0, func(uint64) {
				_, err = eng.QuerySummary(probes[seq%len(probes)], topK, 1)
			})
			return err == nil
		},
	})

	r.set("heap_mb", heapMB(heapAfterGC(), r.heapBase))
	r.set("index_bytes_per_photo", float64(eng.IndexBytes())/float64(eng.Len()))
	r.set("disk_bytes_per_photo", float64(cold.DiskBytes)/float64(cold.Entries))

	// Identity against the pre-migration answers; recall against the exact
	// top-K by brute-force Jaccard over every entry.
	failed := 0
	var recall float64
	for i, ps := range checks {
		got, err := eng.QuerySummary(ps, topK, 1)
		if err != nil || !sameResults(got, want[i]) {
			failed++
			continue
		}
		hit := 0
		for _, res := range got {
			if _, ok := exact[i][res.ID]; ok {
				hit++
			}
		}
		if len(exact[i]) > 0 {
			recall += float64(hit) / float64(len(exact[i]))
		} else {
			recall++
		}
	}
	r.count("identity_check", len(checks), failed)
	r.set("recall_at_k", recall/float64(len(checks)))

	if r.trace {
		r.set("tiered.migrate_entries_per_s", float64(cold.Entries)/migrate.Seconds())
		r.absent("cache.")
		r.absent(serverLiveLayers...)
		r.absent(routerLiveLayers...)
		r.setSpanLayers(r.tr.index())
		return r.ladder(ladderInput{eng: eng, cfg: cfg, probes: ladderImgs, fresh: c, rng: rng})
	}
	return nil
}

// scored orders candidates the way the engine ranks results: higher score
// first, lower id on ties.
type scored struct {
	id    uint64
	score float64
}

// worstFirst is a min-heap by rank, so the root is the entry to evict.
type worstFirst []scored

func (h worstFirst) Len() int { return len(h) }
func (h worstFirst) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].id > h[j].id
}
func (h worstFirst) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *worstFirst) Push(x any)   { *h = append(*h, x.(scored)) }
func (h *worstFirst) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// bruteForceTopK returns, per probe, the ids of the exact top-K entries by
// bloom.JaccardSparse over every entry of the (all-RAM) engine — the ground
// truth the approximate search is scored against, computed independently of
// the packed scoring kernel under test.
func bruteForceTopK(eng *core.Engine, probes []*bloom.Sparse) []map[uint64]struct{} {
	ids := eng.IDs()
	sums := make([]*bloom.Sparse, len(ids))
	for i, id := range ids {
		sums[i], _ = eng.SummaryOf(id)
	}
	out := make([]map[uint64]struct{}, len(probes))
	var wg sync.WaitGroup
	workers := loadCallers()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pi := w; pi < len(probes); pi += workers {
				h := &worstFirst{}
				for i, s := range sums {
					if s == nil || len(s.Bits) == 0 {
						continue
					}
					j, err := bloom.JaccardSparse(probes[pi], s)
					if err != nil || j <= 0 {
						continue
					}
					heap.Push(h, scored{id: ids[i], score: j})
					if h.Len() > topK {
						heap.Pop(h)
					}
				}
				set := make(map[uint64]struct{}, h.Len())
				for _, s := range *h {
					set[s.id] = struct{}{}
				}
				out[pi] = set
			}
		}(w)
	}
	wg.Wait()
	return out
}
