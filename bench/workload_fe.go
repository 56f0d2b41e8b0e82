package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/store"
)

// runFEIngestQuery: an in-process engine with its caches off, so feature
// extraction and summarization do nearly all the work on both the batched
// write path and the per-probe read path.
func runFEIngestQuery(r *run) error {
	const (
		nScenes  = 32
		batch    = 200
		probesN  = 2000
		churnPer = 10
	)
	// Work is fixed by the seed and the window, not by how fast the host is.
	ingestN := int(r.seconds*200) / batch * batch
	if ingestN < 2*batch {
		ingestN = 2 * batch
	}
	singlesN := int(r.seconds * 20)

	rng := rand.New(rand.NewSource(r.seed))
	c := newCorpus(nScenes)
	built := c.base()
	ingest := c.seeded(rng, ingestN)
	singles := c.generate(rng, freshIDBase, singlesN)
	churn := c.generate(rng, freshIDBase+100_000, snapshotRounds*churnPer)
	probes := loadProbes(rng, c.photos, probesN)
	checks, err := checkProbes(c.photos, nScenes, checksN, r.seed+23)
	if err != nil {
		return err
	}
	r.fp.photos(c.photos)
	r.fp.probes(probes)
	r.fp.probes(checks)
	r.heapBaseline()

	// TableCapacity: the engine sizes its cuckoo table from the Build
	// corpus, and later inserts into a 2×500 table die with "rehash
	// required"; size it for the final corpus instead.
	cfg := core.Config{TableCapacity: 2 * len(c.photos), IngestWorkers: r.callers}
	eng := core.NewEngine(cfg)
	if _, err := eng.Build(built); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	live := newTruth()
	live.add(built...)

	// Timed ingest: one segment per batch.
	var rates []float64
	var ingestErr error
	r.phase(func() {
		for i := 0; i < len(ingest); i += batch {
			t0 := time.Now()
			st, err := eng.InsertBatch(ingest[i:i+batch], r.callers)
			if err != nil {
				ingestErr = err
				return
			}
			rates = append(rates, float64(st.Photos)/time.Since(t0).Seconds())
		}
	})
	if ingestErr != nil {
		return fmt.Errorf("ingest: %w", ingestErr)
	}
	live.add(ingest...)
	r.count("ingest_photo", len(ingest), 0)
	r.set("ingest_photos_per_s", median(dropFirst(rates)))
	r.info["ingest_segments"] = float64(len(rates) - 1)
	r.info["ingest_segment_spread"] = spreadOf(dropFirst(rates))

	// Timed single inserts.
	lats := make([]time.Duration, 0, singlesN)
	failed := 0
	r.phase(func() {
		for _, p := range singles {
			t0 := time.Now()
			if err := eng.Insert(p); err != nil {
				failed++
			}
			lats = append(lats, time.Since(t0))
		}
	})
	live.add(singles...)
	r.count("insert", singlesN, failed)
	_, p50 := countedRates(lats, 10)
	r.set("insert_p50_ms", p50)

	// Timed snapshots of the mutating index.
	g := newGenerations(r.tmp, "fe.fast")
	var snapP50 float64
	var lastSnap store.WriteResult
	var snapErr error
	r.phase(func() {
		snapP50, lastSnap, snapErr = snapshotPhase(eng, g, func(round int) error {
			_, err := eng.InsertBatch(churn[round*churnPer:(round+1)*churnPer], r.callers)
			return err
		})
	})
	if snapErr != nil {
		return fmt.Errorf("snapshot: %w", snapErr)
	}
	live.add(churn...)
	r.count("snapshot", snapshotRounds, 0)
	r.set("store.snapshot_save_ms", snapP50)

	// Timed queries, every probe paying full FE.
	r.closedQueryPhase(queryOps{
		plain: func(_, seq int) bool {
			_, err := eng.Query(probes[seq%len(probes)].img, topK)
			return err == nil
		},
		traced: func(_, seq int) bool {
			return tracedEngineQuery(r.tr, eng, probes[seq%len(probes)].img)
		},
	})

	r.set("heap_mb", heapMB(heapAfterGC(), r.heapBase))
	r.set("index_bytes_per_photo", float64(eng.IndexBytes())/float64(eng.Len()))
	r.set("disk_bytes_per_photo", float64(lastSnap.LogicalBytes)/float64(eng.Len()))
	r.checkAnswers(checks, live,
		func(p probe) ([]core.SearchResult, error) { return eng.Query(p.img, topK) },
		func(p probe) ([]core.SearchResult, error) { return eng.QueryUncached(p.img, topK) })

	if r.trace {
		r.absent("cache.", "tiered.migrate_entries_per_s")
		r.absent(serverLiveLayers...)
		r.absent(routerLiveLayers...)
		r.setSpanLayers(r.tr.index())
		return r.ladder(ladderInput{eng: eng, cfg: cfg, probes: probes, fresh: c, rng: rng})
	}
	return nil
}

// tracedEngineQuery is Engine.Query split at its one public seam —
// Summarize + QuerySummary answer byte-identically to Query — with a span
// around each half.
func tracedEngineQuery(tr *tracer, eng *core.Engine, img *simimg.Image) bool {
	ok := true
	req := tr.newID()
	tr.do("core.query", req, 0, func(id uint64) {
		var f *bloom.Filter
		var err error
		tr.do("core.summarize", req, id, func(uint64) { f, err = eng.Summarize(img) })
		if err != nil {
			ok = false
			return
		}
		ps := bloom.ToSparse(f)
		tr.do("core.search", req, id, func(uint64) { _, err = eng.QuerySummary(ps, topK, 1) })
		ok = err == nil
	})
	return ok
}
