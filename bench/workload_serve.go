package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"github.com/fastrepro/fast/internal/client"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/simimg"
)

// fastd's serving defaults (cmd/fastd flags): the deployed shape.
const (
	fastdWindow       = 2 * time.Millisecond
	fastdBatchMax     = 32
	fastdSummaryCache = 4096
	fastdResultCache  = 8192
)

// arrivals draws one due time per 1/rate slot of the window, uniformly
// within the slot: independent-looking arrivals (two can land microseconds
// apart) whose count per window and per segment is fixed by the rate, so
// the offered load is the same for every seed.
func arrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(rate * window.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
	}
	return out
}

// runServeMixed: one fastd-shaped server over loopback HTTP under an
// open-loop mix of reads, writes and snapshots — the only workload where
// wire decode/encode, admission, the coalescer window, both cache tiers
// (writes bump the epoch and void the result tier), the view refreeze on
// every insert and snapshots under the engine read lock all interact.
func runServeMixed(r *run) error {
	const (
		nScenes   = 32
		corpusN   = 2000
		hotN      = 64
		hotShare  = 0.4
		queryRate = 100.0
		insRate   = 12.0
		delRate   = 3.0
		snapEvery = 1250 * time.Millisecond
	)
	window := r.window()
	rng := rand.New(rand.NewSource(r.seed))

	// The schedule first: it fixes how many inputs of each kind exist.
	zipf := rand.NewZipf(rng, 1.1, 1, hotN-1)
	var events []event
	unique := 0
	for _, due := range arrivals(rng, queryRate, window) {
		ev := event{due: due, kind: opQuery}
		if rng.Float64() < hotShare {
			ev.arg = int(zipf.Uint64())
		} else {
			ev.arg = hotN + unique
			unique++
		}
		events = append(events, ev)
	}
	insDue := arrivals(rng, insRate, window)
	for i, due := range insDue {
		events = append(events, event{due: due, kind: opInsert, arg: i})
	}
	delDue := arrivals(rng, delRate, window)
	for i, due := range delDue {
		events = append(events, event{due: due, kind: opDelete, arg: i})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].due < events[j].due })

	c := newCorpus(nScenes)
	base := c.base()
	initial := append(base, c.seeded(rng, corpusN-baseN)...)
	inserts := c.generate(rng, freshIDBase, len(insDue))
	victims := rng.Perm(corpusN)[:len(delDue)]
	probes := loadProbes(rng, initial, hotN+unique)
	checks, err := checkProbes(initial, nScenes, checksN, r.seed+23)
	if err != nil {
		return err
	}
	r.fp.photos(c.photos)
	r.fp.probes(probes)
	r.fp.probes(checks)
	for _, ev := range events {
		r.fp.word(uint64(ev.due))
		r.fp.word(uint64(ev.kind)<<32 | uint64(ev.arg))
	}
	r.heapBaseline()

	cfg := core.Config{
		TableCapacity: 2 * (corpusN + len(inserts) + 1000), IngestWorkers: r.callers,
		SummaryCache: fastdSummaryCache, ResultCache: fastdResultCache,
	}
	eng, err := buildEngine(cfg, base, initial[baseN:], r.callers)
	if err != nil {
		return err
	}
	var boot bytes.Buffer // the oracle restarts from this
	if _, err := eng.WriteTo(&boot); err != nil {
		return fmt.Errorf("boot snapshot: %w", err)
	}
	srv, err := server.New(server.Config{
		Engine: eng, Window: fastdWindow, BatchMax: fastdBatchMax,
		Snapshots: newGenerations(r.tmp, "serve.fast"),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(r.tr.middleware("server.handler", srv.Handler()))
	defer ts.Close()
	// No client retries: a refused request is a failed operation, not a
	// slower one.
	cl := client.New(ts.URL, client.WithHTTPClient(tracedClient(ts.Client())), client.WithRetries(0, 0))
	ctx := context.Background()
	if err := cl.Healthy(ctx); err != nil {
		return fmt.Errorf("server not healthy: %w", err)
	}

	// call runs one client operation, under a root span when tracing.
	call := func(kind string, fn func(ctx context.Context) bool) bool {
		if !r.tr.enabled() {
			return fn(ctx)
		}
		ok := false
		req := r.tr.newID()
		r.tr.do("client."+kind, req, 0, func(id uint64) { ok = fn(withTrace(ctx, traceRef{req: req, parent: id})) })
		return ok
	}
	op := func(ev event) bool {
		switch ev.kind {
		case opQuery:
			return call("query", func(ctx context.Context) bool {
				_, partial, err := cl.QueryDetailed(ctx, probes[ev.arg].img, topK)
				return err == nil && !partial
			})
		case opInsert:
			return call("insert", func(ctx context.Context) bool {
				return cl.Insert(ctx, inserts[ev.arg].ID, inserts[ev.arg].Img) == nil
			})
		default:
			return call("delete", func(ctx context.Context) bool {
				return cl.Delete(ctx, initial[victims[ev.arg]].ID) == nil
			})
		}
	}

	// The timed window: the whole of it is the open-loop mix.
	r.setupDone()
	runtime.GC()
	srvBefore, cacheBefore := srv.Stats(), eng.CacheStats()
	cost := startCost()
	start := time.Now()
	var snapDurs []time.Duration
	snapFailed := 0
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for due := snapEvery / 2; due < window; due += snapEvery {
			time.Sleep(time.Until(start.Add(due)))
			t0 := time.Now()
			if _, err := cl.SnapshotSave(ctx); err != nil {
				snapFailed++
			}
			snapDurs = append(snapDurs, time.Since(t0))
		}
	}()
	traceOn := time.AfterFunc(window/2, func() {
		if r.trace {
			r.tr.on.Store(true)
		}
	})
	samples, late := openLoop(start, r.callers, events, op)
	<-snapDone
	traceOn.Stop()
	r.tr.on.Store(false)
	cost.stop()
	r.timed += window
	srvAfter, cacheAfter := srv.Stats(), eng.CacheStats()

	byKind := make([][]sample, opKinds)
	for i, ev := range events {
		byKind[ev.kind] = append(byKind[ev.kind], samples[i])
	}
	span, nseg := window, querySegments
	if r.trace {
		// The first half ran untraced; it alone gives comparable latency.
		span, nseg = window/2, querySegments/2
	}
	qs := summarize(byKind[opQuery], span, nseg, true)
	is := summarize(byKind[opInsert], span, nseg, true)
	ds := summarize(byKind[opDelete], span, nseg, true)
	// Attempted and Failed cover the whole window in either mode; a traced
	// run's latencies come from its untraced first half only. Mixed
	// workload: the CPU bought every completed operation.
	done := 0
	if !r.trace {
		done = qs.Attempted - qs.Failed + is.Attempted - is.Failed + ds.Attempted - ds.Failed
	}
	r.setQueryMetrics(qs, cost, start, window, done)
	r.count("insert", is.Attempted, is.Failed)
	r.count("delete", ds.Attempted, ds.Failed)
	r.count("snapshot", len(snapDurs), snapFailed)
	r.set("ingest_photos_per_s", is.PerSec)
	r.set("insert_p50_ms", is.P50ms)
	r.set("store.snapshot_save_ms", medianOfDurationsMs(dropFirst(snapDurs)))
	lateMS := make([]float64, len(late))
	for i, l := range late {
		lateMS[i] = float64(l) / float64(time.Millisecond)
	}
	sort.Float64s(lateMS)
	r.info["late_p95_ms"] = percentile(lateMS, 0.95)
	r.info["snapshots"] = float64(len(snapDurs))

	// Quiesced: nothing is in flight any more.
	r.set("heap_mb", heapMB(heapAfterGC(), r.heapBase))
	final, err := cl.SnapshotSave(ctx)
	if err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	r.set("index_bytes_per_photo", float64(eng.IndexBytes())/float64(eng.Len()))
	r.set("disk_bytes_per_photo", float64(final.LogicalBytes)/float64(eng.Len()))

	// The oracle: the boot snapshot plus every acknowledged mutation.
	oracle, err := core.ReadEngine(bytes.NewReader(boot.Bytes()))
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	live := newTruth()
	live.add(initial...)
	var acked []*simimg.Photo
	for i, ev := range events {
		if !samples[i].ok {
			continue
		}
		switch ev.kind {
		case opInsert:
			acked = append(acked, inserts[ev.arg])
		case opDelete:
			id := initial[victims[ev.arg]].ID
			if err := oracle.Delete(id); err != nil {
				return fmt.Errorf("oracle delete: %w", err)
			}
			live.remove(id)
		}
	}
	if _, err := oracle.InsertBatch(acked, r.callers); err != nil {
		return fmt.Errorf("oracle insert: %w", err)
	}
	live.add(acked...)
	r.checkAnswers(checks, live,
		func(p probe) ([]core.SearchResult, error) { return cl.Query(ctx, p.img, topK) },
		func(p probe) ([]core.SearchResult, error) { return oracle.Query(p.img, topK) })

	if !r.trace {
		return nil
	}
	traced := shiftSamples(byKind[opQuery], window/2)
	pt := summarize(traced, window/2, querySegments/2, true)
	if pt.P50ms > 0 {
		// On a fixed rate the overhead shows in latency, not throughput.
		r.set("trace.overhead_ratio", qs.P50ms/pt.P50ms)
	} else {
		r.set("trace.overhead_ratio", 0)
	}
	r.set("loadgen.late_p95_ms", percentile(lateMS, 0.95))
	r.setHarnessLayers(qs, cost, len(events))
	ix := r.tr.index()
	r.setSpanLayers(ix)
	r.set("server.handler_us", ix.p50us("server.handler"))
	r.set("client.overhead_us", ix.overheadP50us("client.query"))
	setServerLayers(r, srvBefore, srvAfter, len(events))
	t1h, t1m := cacheAfter.Summary.Hits-cacheBefore.Summary.Hits, cacheAfter.Summary.Misses-cacheBefore.Summary.Misses
	t2h, t2m := cacheAfter.Result.Hits-cacheBefore.Result.Hits, cacheAfter.Result.Misses-cacheBefore.Result.Misses
	r.set("cache.t1_hit_ratio", ratio(t1h, t1h+t1m))
	r.set("cache.t2_hit_ratio", ratio(t2h, t2h+t2m))
	r.set("cache.singleflight_waits", float64(cacheAfter.Summary.Waits-cacheBefore.Summary.Waits+cacheAfter.Result.Waits-cacheBefore.Result.Waits))
	r.absent("tiered.migrate_entries_per_s")
	r.absent(routerLiveLayers...)
	return r.ladder(ladderInput{eng: oracle, cfg: cfg, probes: probes[hotN:], fresh: c, rng: rng})
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// shiftSamples returns the samples due at or after from, re-based to it.
func shiftSamples(ss []sample, from time.Duration) []sample {
	var out []sample
	for _, s := range ss {
		if s.at >= from {
			s.at -= from
			out = append(out, s)
		}
	}
	return out
}

// setServerLayers records the serving layer's own counters over a phase.
// With several servers (the cluster's shards) the caller passes summed
// stats.
func setServerLayers(r *run, before, after server.Stats, attempted int) {
	r.set("server.queue_wait_us", float64(after.QueueWaitMeanNs)/1e3)
	r.set("server.batch_mean", after.QueryBatchMean)
	r.set("server.dedup_ratio", ratio(after.QueryDeduped-before.QueryDeduped, after.Queries-before.Queries))
	r.set("server.rejected_ratio", ratio(after.AdmissionRejected-before.AdmissionRejected, int64(attempted)))
}
