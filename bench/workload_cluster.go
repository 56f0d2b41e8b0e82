package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/fastrepro/fast/internal/client"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/placement"
	"github.com/fastrepro/fast/internal/replica"
	"github.com/fastrepro/fast/internal/router"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/store"
)

// runClusterRF2: three in-process shards at replica factor 2 behind a
// round-robin router, all over loopback HTTP, booted the way
// internal/experiments/cluster.go boots them. The only workload where the
// router's pick, fan-out, slowest-shard wait, ownership fence and MergeTopK
// run — and where each of S−n+1 = 2 shards re-runs feature extraction on
// the same 44 KB base64 float64 body.
func runClusterRF2(r *run) error {
	const (
		nScenes     = 32
		corpusN     = 1500
		shards      = 3
		rf          = 2
		probesN     = 2000
		writeRounds = 4
		writeSegs   = 5 // per round; the first of each round is warm-up
	)
	// Work is fixed by the seed and the window.
	perRound := int(r.seconds*24) / writeRounds / writeSegs * writeSegs
	if perRound < 2*writeSegs {
		perRound = 2 * writeSegs
	}
	rng := rand.New(rand.NewSource(r.seed))
	c := newCorpus(nScenes)
	base := c.base()
	initial := append(base, c.seeded(rng, corpusN-baseN)...)
	writes := c.generate(rng, freshIDBase, writeRounds*perRound)
	probes := loadProbes(rng, c.photos, probesN)
	checks, err := checkProbes(c.photos, nScenes, checksN, r.seed+23)
	if err != nil {
		return err
	}
	r.fp.photos(c.photos)
	r.fp.probes(probes)
	r.fp.probes(checks)
	r.heapBaseline()

	// Group expansion re-queries with stored summaries of top hits, which
	// crosses shard boundaries, so cluster serving always runs with it off.
	cfg := core.Config{GroupExpand: -1, TableCapacity: 2 * (len(c.photos) + 1000), IngestWorkers: r.callers}
	union, err := buildEngine(cfg, base, initial[baseN:], r.callers)
	if err != nil {
		return err
	}
	var boot bytes.Buffer
	if _, err := union.WriteTo(&boot); err != nil {
		return fmt.Errorf("boot snapshot: %w", err)
	}
	ring, err := placement.New(placement.Config{Shards: shards, VNodes: placement.DefaultVNodes, Seed: uint64(r.seed), Epoch: 1})
	if err != nil {
		return err
	}

	// Every shard restores the union snapshot (same trained basis, same
	// geometry — the precondition for identical scores) and drops what the
	// ring places elsewhere; exactly fastd -shard-index's boot. Shard
	// caches and coalescing are off.
	engines := make([]*core.Engine, shards)
	servers := make([]*server.Server, shards)
	shardClients := make([]*client.Client, shards)
	backends := make([]router.Backend, shards)
	for s := 0; s < shards; s++ {
		eng, err := core.ReadEngine(bytes.NewReader(boot.Bytes()))
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		if _, _, err := replica.Subset(eng, ring, rf, s); err != nil {
			return err
		}
		srv, err := server.New(server.Config{Engine: eng, Snapshots: newGenerations(r.tmp, fmt.Sprintf("shard%d.fast", s))})
		if err != nil {
			return err
		}
		defer srv.Close()
		ts := httptest.NewServer(r.tr.middleware("server.handler", srv.Handler()))
		defer ts.Close()
		engines[s], servers[s] = eng, srv
		hc := tracedClient(ts.Client())
		shardClients[s] = client.New(ts.URL, client.WithHTTPClient(hc), client.WithRetries(0, 0))
		backends[s] = router.NewClientBackend(client.New(ts.URL, client.WithHTTPClient(hc), client.WithRetries(1, 10*time.Millisecond)))
	}
	rt, err := router.New(router.Config{Shards: backends, Ring: ring, Replicas: rf, Policy: router.ReadRoundRobin, ShardTimeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer rt.Close()
	rts := httptest.NewServer(r.tr.middleware("router.handler", rt.Handler()))
	defer rts.Close()
	cl := client.New(rts.URL, client.WithHTTPClient(tracedClient(rts.Client())), client.WithRetries(0, 0))
	ctx := context.Background()
	if err := cl.Healthy(ctx); err != nil {
		return fmt.Errorf("router not healthy: %w", err)
	}

	// snapshotAll saves every shard and returns the write times.
	lastSnap := make([]store.WriteResult, shards)
	snapshotAll := func() ([]time.Duration, error) {
		var durs []time.Duration
		for s, sc := range shardClients {
			t0 := time.Now()
			res, err := sc.SnapshotSave(ctx)
			if err != nil {
				return nil, fmt.Errorf("shard %d snapshot: %w", s, err)
			}
			durs = append(durs, time.Since(t0))
			lastSnap[s] = res
		}
		return durs, nil
	}
	if _, err := snapshotAll(); err != nil { // the full first write is warm-up
		return err
	}

	// Timed replicated writes through the router (primary synchronously,
	// replica asynchronously), a snapshot of every shard after each round.
	var rates, p50s []float64
	var snapDurs []time.Duration
	insertFailed := 0
	var phaseErr error
	r.phase(func() {
		for round := 0; round < writeRounds; round++ {
			batch := writes[round*perRound : (round+1)*perRound]
			lats := make([]time.Duration, len(batch))
			oks := make([]bool, len(batch))
			var wg sync.WaitGroup
			for caller := 0; caller < r.callers; caller++ {
				wg.Add(1)
				go func(caller int) {
					defer wg.Done()
					for i := caller; i < len(batch); i += r.callers {
						t0 := time.Now()
						oks[i] = cl.Insert(ctx, batch[i].ID, batch[i].Img) == nil
						lats[i] = time.Since(t0)
					}
				}(caller)
			}
			wg.Wait()
			for _, ok := range oks {
				if !ok {
					insertFailed++
				}
			}
			// callers ran side by side, so a segment's wall time is its
			// summed latency over the callers.
			segRates, segP50s := segmentRates(lats, writeSegs)
			for _, v := range segRates {
				rates = append(rates, v*float64(r.callers))
			}
			p50s = append(p50s, segP50s...)
			qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			err := rt.QuiesceReplicas(qctx)
			cancel()
			if err != nil {
				phaseErr = fmt.Errorf("quiescing replicas: %w", err)
				return
			}
			durs, err := snapshotAll()
			if err != nil {
				phaseErr = err
				return
			}
			snapDurs = append(snapDurs, durs...)
		}
	})
	if phaseErr != nil {
		return phaseErr
	}
	r.count("insert", len(writes), insertFailed)
	r.count("snapshot", shards+len(snapDurs), 0)
	r.set("ingest_photos_per_s", median(rates))
	r.set("insert_p50_ms", median(p50s))
	r.set("store.snapshot_save_ms", medianOfDurationsMs(snapDurs))

	sumStats := func() server.Stats {
		var sum server.Stats
		for _, srv := range servers {
			st := srv.Stats()
			sum.Queries += st.Queries
			sum.QueryDeduped += st.QueryDeduped
			sum.AdmissionRejected += st.AdmissionRejected
		}
		return sum
	}
	srvBefore, rtBefore := sumStats(), rt.Stats(ctx)

	// Timed queries through the router.
	ask := func(ctx context.Context, img *simimg.Image) bool {
		_, resp, err := cl.QueryFull(ctx, img, topK)
		return err == nil && !resp.Partial && !resp.Stale
	}
	r.closedQueryPhase(queryOps{
		plain: func(_, seq int) bool { return ask(ctx, probes[seq%len(probes)].img) },
		traced: func(_, seq int) bool {
			ok := false
			req := r.tr.newID()
			r.tr.do("client.query", req, 0, func(id uint64) {
				ok = ask(withTrace(ctx, traceRef{req: req, parent: id}), probes[seq%len(probes)].img)
			})
			return ok
		},
	})
	srvAfter, rtAfter := sumStats(), rt.Stats(ctx)

	r.set("heap_mb", heapMB(heapAfterGC(), r.heapBase))
	var indexBytes, diskBytes int64
	for s, eng := range engines {
		indexBytes += eng.IndexBytes()
		diskBytes += lastSnap[s].LogicalBytes
	}
	distinct := float64(len(c.photos))
	r.set("index_bytes_per_photo", float64(indexBytes)/distinct)
	r.set("disk_bytes_per_photo", float64(diskBytes)/distinct)

	// The oracle: one engine over the union corpus, expansion off.
	oracle, err := core.ReadEngine(bytes.NewReader(boot.Bytes()))
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if _, err := oracle.InsertBatch(writes, r.callers); err != nil {
		return fmt.Errorf("oracle insert: %w", err)
	}
	live := newTruth()
	live.add(c.photos...)
	r.checkAnswers(checks, live,
		func(p probe) ([]core.SearchResult, error) {
			res, resp, err := cl.QueryFull(ctx, p.img, topK)
			if err == nil && (resp.Partial || resp.Stale) {
				err = fmt.Errorf("answer flagged partial=%v stale=%v", resp.Partial, resp.Stale)
			}
			return res, err
		},
		func(p probe) ([]core.SearchResult, error) { return oracle.Query(p.img, topK) })

	if !r.trace {
		return nil
	}
	ix := r.tr.index()
	r.setSpanLayers(ix)
	r.set("server.handler_us", ix.p50us("server.handler"))
	r.set("client.overhead_us", ix.overheadP50us("client.query"))
	r.set("router.handler_us", ix.p50us("router.handler"))
	r.set("router.overhead_us", ix.overheadP50us("router.handler"))
	var slowest []float64
	fanout := 0
	for _, s := range ix.byName["router.handler"] {
		kids := ix.children[s.ID]
		fanout += len(kids)
		var worst int64
		for _, k := range kids {
			if k.dur() > worst {
				worst = k.dur()
			}
		}
		slowest = append(slowest, float64(worst)/1e3)
	}
	r.set("router.slowest_shard_us", median(slowest))
	r.set("router.shards_per_query", float64(fanout)/float64(max(len(slowest), 1)))
	routed := rtAfter.Queries - rtBefore.Queries
	r.set("router.hedged_ratio", ratio(rtAfter.HedgedQueries-rtBefore.HedgedQueries, routed))
	r.set("router.repair_ratio", ratio(rtAfter.RepairWaves-rtBefore.RepairWaves, routed))
	r.set("router.partial_ratio", ratio(rtAfter.PartialQueries-rtBefore.PartialQueries, routed))
	r.set("router.stale_ratio", ratio(rtAfter.StaleQueries-rtBefore.StaleQueries, routed))
	setServerLayers(r, srvBefore, srvAfter, int(srvAfter.Queries-srvBefore.Queries))
	r.absent("cache.", "tiered.migrate_entries_per_s")
	return r.ladder(ladderInput{eng: oracle, cfg: cfg, probes: probes, fresh: c, rng: rng})
}
