// Package server is the network serving layer of the FAST reproduction:
// an HTTP/JSON API over net/http wrapping a core.Engine, with the three
// mechanisms a query index needs to survive network fan-in:
//
//   - admission control: a slot semaphore plus a bounded waiting line;
//     work beyond both limits is refused with 429 + Retry-After instead of
//     being allowed to pile onto the scheduler;
//   - request coalescing: concurrently arriving queries are micro-batched
//     (up to BatchMax probes or Window, whichever first) into single
//     Engine.QueryBatch calls so the sharded batch path — not one goroutine
//     per request — does the work; inserts coalesce into InsertBatch the
//     same way;
//   - hot snapshots: /v1/snapshot streams the index through Engine.WriteTo
//     under the engine's read lock, so queries keep flowing while the
//     snapshot is cut.
//
// Endpoints: POST /v1/query, /v1/insert, /v1/delete, /v1/restore;
// GET/POST /v1/snapshot; GET /v1/stats, /healthz.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/metrics"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/store"
)

// Config parameterizes the serving layer.
type Config struct {
	// Engine is the index to serve; required.
	Engine *core.Engine
	// Window is the coalescing window: after the first probe of a batch
	// arrives, the collector waits at most this long for more before
	// dispatching. 0 disables coalescing — every request runs its own
	// engine call (the naive shape the serve benchmark compares against).
	Window time.Duration
	// BatchMax caps probes per coalesced batch; 0 means 32.
	BatchMax int
	// BatchWorkers is the worker count passed to Engine.QueryBatch /
	// Engine.InsertBatch per dispatched batch; 0 means GOMAXPROCS.
	BatchWorkers int
	// MaxInflight bounds concurrently executing requests; 0 means
	// 8*GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot; beyond it the
	// server answers 429. 0 means 4*MaxInflight.
	MaxQueue int
	// TopKLimit caps per-query result budgets; 0 means 1000.
	TopKLimit int
	// MaxBodyBytes caps request bodies; 0 means 256 MB (restores carry
	// whole snapshots).
	MaxBodyBytes int64
	// Recovery, when non-nil, is the daemon's startup snapshot-recovery
	// report, surfaced by /v1/stats for operator visibility.
	Recovery *store.RecoveryInfo
	// Snapshots, when non-nil, is the daemon's persistent generation store:
	// POST /v1/snapshot/save writes the served engine into it (rotating
	// generations, deduplicating against prior chunks when the store is
	// chunked) and /v1/stats reports its cumulative dedup counters. With a
	// nil store the endpoint answers 501 — streaming GET /v1/snapshot is
	// unaffected.
	Snapshots *store.Generations
	// Shard, when non-nil, makes the server placement-aware: it serves
	// /v1/ring (live ring reconfiguration) and reports its ring state in
	// /v1/stats. Nil for single-node daemons; /v1/ring answers 501 then.
	Shard *ShardConfig
}

func (c Config) withDefaults() Config {
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.TopKLimit <= 0 {
		c.TopKLimit = 1000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	return c
}

// serverMetrics aggregates the serving-layer counters /v1/stats reports.
type serverMetrics struct {
	queries      metrics.Counter
	queryErrors  metrics.Counter
	queryDeduped metrics.Counter
	inserts      metrics.Counter
	insertErrors metrics.Counter
	deletes      metrics.Counter
	rejected     metrics.Counter
	snapshots    metrics.Counter
	queryBatch   metrics.IntDist // probes per dispatched query batch
	insertBatch  metrics.IntDist // photos per dispatched insert batch
	queueWait    *metrics.Histogram
}

// Server wraps an engine with the HTTP serving layer. Construct with New,
// mount Handler on an http.Server, and on shutdown call BeginDrain, then
// http.Server.Shutdown, then Close (in that order — Close assumes no
// handler is still submitting work).
type Server struct {
	cfg Config

	engineMu sync.RWMutex
	engine   *core.Engine

	adm       *admission
	queries   *coalescer[queryJob]
	inserts   *coalescer[insertJob]
	met       serverMetrics
	draining  atomic.Bool
	closeOnce sync.Once
	start     time.Time

	// Shard-mode placement state (nil without Config.Shard); see ring.go.
	shardCfg ShardConfig
	ringMu   sync.Mutex
	ring     *shardRing
}

type queryJob struct {
	img       *simimg.Image
	topK      int
	submitted time.Time
	resp      chan queryResp
}

type queryResp struct {
	results []core.SearchResult
	err     error
}

type insertJob struct {
	photo     *simimg.Photo
	submitted time.Time
	resp      chan error
}

// New builds a Server around cfg.Engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: config needs an engine")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		engine: cfg.Engine,
		start:  time.Now(),
	}
	s.met.queueWait = metrics.NewHistogram()
	s.adm = newAdmission(cfg.MaxInflight, cfg.MaxQueue, &s.met.rejected)
	if cfg.Shard != nil {
		s.shardCfg = *cfg.Shard
		ring, err := newShardRing(s.shardCfg)
		if err != nil {
			return nil, err
		}
		s.ring = ring
	}
	if cfg.Window > 0 {
		s.queries = newCoalescer(cfg.Window, cfg.BatchMax, s.dispatchQueries)
		s.inserts = newCoalescer(cfg.Window, cfg.BatchMax, s.dispatchInserts)
	}
	return s, nil
}

// Engine returns the currently served engine (it changes on /v1/restore).
func (s *Server) Engine() *core.Engine {
	s.engineMu.RLock()
	defer s.engineMu.RUnlock()
	return s.engine
}

func (s *Server) swapEngine(e *core.Engine) {
	s.engineMu.Lock()
	s.engine = e
	s.engineMu.Unlock()
}

// BeginDrain makes the server refuse new work (503 on every /v1 endpoint
// and /healthz) while requests already admitted keep running. The daemon
// calls it before http.Server.Shutdown so load balancers fail the health
// check first.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the coalescers after their in-flight batches finish. It must
// only be called once no handler is still submitting — i.e. after
// http.Server.Shutdown has returned. Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.queries != nil {
			s.queries.close()
		}
		if s.inserts != nil {
			s.inserts.close()
		}
	})
}

// Handler returns the /v1 API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/insert", s.handleInsert)
	mux.HandleFunc("/v1/delete", s.handleDelete)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/snapshot/save", s.handleSnapshotSave)
	mux.HandleFunc("/v1/snapshot/chunks", s.handleSnapshotChunks)
	mux.HandleFunc("/v1/snapshot/fetch", s.handleSnapshotFetch)
	mux.HandleFunc("/v1/restore", s.handleRestore)
	mux.HandleFunc("/v1/ring", s.handleRing)
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// gate runs the common front half of every engine-touching handler:
// method check, drain check, admission, then the JSON decode
// (body-limited). Admission comes before the decode so the potentially
// expensive body work (up to MaxBodyBytes of JSON plus base64 pixels) runs
// under the same concurrency bound as the engine call — otherwise a flood
// of fat requests could do unbounded decode work while "waiting" for a
// slot. It returns false after writing the refusal; on true the caller
// owns one admission slot and must defer s.adm.release().
func (s *Server) gate(w http.ResponseWriter, r *http.Request, method string, body interface{}) bool {
	if r.Method != method {
		writeError(w, http.StatusMethodNotAllowed, "use %s", method)
		return false
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	// Failpoints: synthesize admission-control backpressure without real
	// overload, so client retry behavior can be driven deterministically.
	if failpoint.Eval(failpoint.ServerInject429) != nil {
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "injected backpressure")
		return false
	}
	if failpoint.Eval(failpoint.ServerInject503) != nil {
		writeError(w, http.StatusServiceUnavailable, "injected unavailability")
		return false
	}
	if err := s.adm.acquire(r.Context()); err != nil {
		if errors.Is(err, ErrOverloaded) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
		} else {
			writeError(w, http.StatusRequestTimeout, "%v", err)
		}
		return false
	}
	if body != nil {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err := dec.Decode(body); err != nil {
			s.adm.release()
			writeError(w, http.StatusBadRequest, "decoding request: %v", err)
			return false
		}
	}
	return true
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.gate(w, r, http.MethodPost, &req) {
		return
	}
	defer s.adm.release()
	img, err := DecodeImage(req.Image)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	topK := req.TopK
	if topK <= 0 {
		topK = 50
	}
	if topK > s.cfg.TopKLimit {
		topK = s.cfg.TopKLimit
	}

	// Freshness token: sample the published view epoch BEFORE the query
	// runs. Views are published atomically and monotonically, so whatever
	// view the query ends up reading has epoch ≥ this sample — the answer
	// provably reflects every mutation acknowledged at or below it. (The
	// reverse order would over-claim: a write could land between the query
	// and the sample.)
	epoch := s.Engine().PublishedEpoch()
	var results []core.SearchResult
	if s.queries != nil {
		job := queryJob{img: img, topK: topK, submitted: time.Now(), resp: make(chan queryResp, 1)}
		s.queries.submit(job)
		resp := <-job.resp
		results, err = resp.results, resp.err
	} else {
		results, err = s.Engine().Query(img, topK)
	}
	if err != nil {
		s.met.queryErrors.Inc()
		writeError(w, http.StatusUnprocessableEntity, "query failed: %v", err)
		return
	}
	s.met.queries.Inc()
	out := QueryResponse{Results: make([]WireResult, len(results)), IndexEpoch: epoch}
	for i, res := range results {
		out.Results[i] = WireResult{ID: res.ID, Score: res.Score}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !s.gate(w, r, http.MethodPost, &req) {
		return
	}
	defer s.adm.release()
	img, err := DecodeImage(req.Image)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	photo := &simimg.Photo{ID: req.ID, Img: img}
	if s.inserts != nil {
		job := insertJob{photo: photo, submitted: time.Now(), resp: make(chan error, 1)}
		s.inserts.submit(job)
		err = <-job.resp
	} else {
		err = s.Engine().Insert(photo)
	}
	if err != nil {
		s.met.insertErrors.Inc()
		writeError(w, http.StatusUnprocessableEntity, "insert failed: %v", err)
		return
	}
	s.met.inserts.Inc()
	// The mutation published before its engine call returned, so the epoch
	// read here bounds it from above: any query reporting IndexEpoch ≥ this
	// value reflects this insert.
	writeJSON(w, http.StatusOK, OKResponse{OK: true, Epoch: s.Engine().PublishedEpoch()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if !s.gate(w, r, http.MethodPost, &req) {
		return
	}
	defer s.adm.release()
	if err := s.Engine().Delete(req.ID); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "delete failed: %v", err)
		return
	}
	s.met.deletes.Inc()
	writeJSON(w, http.StatusOK, OKResponse{OK: true, Epoch: s.Engine().PublishedEpoch()})
}

// handleSnapshot streams the index. It deliberately bypasses admission —
// the snapshot holds only the engine's read lock, so it coexists with the
// query load the admission controller is budgeting for.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := s.Engine().WriteTo(w); err != nil {
		// Headers are already gone; the client sees a truncated body and
		// ReadEngine rejects it.
		return
	}
	s.met.snapshots.Inc()
}

// handleSnapshotSave writes the served engine into the daemon's persistent
// generation store and reports what the write cost: chunks written vs
// reused, logical vs physical bytes, and what the post-publish GC pass
// reclaimed. Like the streaming snapshot it bypasses admission — the write
// serializes under the engine's read lock, coexisting with query load —
// but unlike it the bytes land in rotated on-disk generations the next
// boot can recover from.
func (s *Server) handleSnapshotSave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.cfg.Snapshots == nil {
		writeError(w, http.StatusNotImplemented, "server has no persistent snapshot store (start fastd with -final-snapshot)")
		return
	}
	res, err := s.cfg.Snapshots.WriteSnapshot(s.Engine())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot save failed: %v", err)
		return
	}
	s.met.snapshots.Inc()
	writeJSON(w, http.StatusOK, res)
}

// handleRestore replaces the served engine with one deserialized from the
// request body. In-flight requests against the old engine finish against
// it; requests admitted afterwards see the new one.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	e, err := core.ReadEngine(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "restore failed: %v", err)
		return
	}
	// Snapshots carry index contents, not serving knobs: carry the old
	// engine's cache configuration onto its replacement. The restored
	// engine starts with empty tiers (fresh object, fresh epoch), so no
	// pre-restore entry can ever be served against the new index.
	e.ConfigureCache(s.Engine().CacheConfig())
	// Hot snapshots never include the cold tier: transfer the old engine's
	// open cold store (mappings and all, so in-flight queries against the
	// old engine keep scanning valid memory) onto the replacement and
	// reconcile ids the snapshot still holds hot.
	if err := e.AdoptColdTier(s.Engine()); err != nil {
		writeError(w, http.StatusBadRequest, "restore failed: %v", err)
		return
	}
	s.swapEngine(e)
	writeJSON(w, http.StatusOK, OKResponse{OK: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats assembles the /v1/stats document.
func (s *Server) Stats() Stats {
	eng := s.Engine()
	est := eng.Stats()
	cs := eng.CacheStats()
	qw := s.met.queueWait.Summarize()
	st := Stats{
		Queries:           s.met.queries.Load(),
		QueryErrors:       s.met.queryErrors.Load(),
		QueryDeduped:      s.met.queryDeduped.Load(),
		Inserts:           s.met.inserts.Load(),
		InsertErrors:      s.met.insertErrors.Load(),
		Deletes:           s.met.deletes.Load(),
		AdmissionRejected: s.met.rejected.Load(),
		Snapshots:         s.met.snapshots.Load(),
		QueryBatches:      s.met.queryBatch.Count(),
		QueryBatchMean:    s.met.queryBatch.Mean(),
		QueryBatchMax:     s.met.queryBatch.Max(),
		InsertBatches:     s.met.insertBatch.Count(),
		InsertBatchMean:   s.met.insertBatch.Mean(),
		InsertBatchMax:    s.met.insertBatch.Max(),
		QueueWaitMeanNs:   qw.Mean.Nanoseconds(),
		QueueWaitP99Ns:    qw.P99.Nanoseconds(),
		Draining:          s.draining.Load(),
		UptimeNs:          time.Since(s.start).Nanoseconds(),
		Photos:            est.Photos,
		Entries:           est.Entries,
		IndexEpoch:        est.Epoch,
		IndexBytes:        est.IndexBytes,
		LSHShards:         est.LSHShards,
		TableShards:       est.TableShards,

		TieredEnabled:         est.Tiered.Enabled,
		TieredHotEntries:      est.Tiered.HotEntries,
		TieredColdEntries:     est.Tiered.ColdEntries,
		TieredSegments:        est.Tiered.Segments,
		TieredTombstones:      est.Tiered.Tombstones,
		TieredColdBytes:       est.Tiered.ColdDiskBytes,
		TieredMigrations:      est.Tiered.Migrations,
		TieredCompactions:     est.Tiered.Compactions,
		TieredSpillProbes:     est.Tiered.SpillProbes,
		TieredPostingsScanned: est.Tiered.ColdPostingsScanned,
		TieredBytesScanned:    est.Tiered.ColdBytesScanned,
		TieredWatermark:       est.Tiered.Watermark,

		SummaryCacheHits:       cs.Summary.Hits,
		SummaryCacheMisses:     cs.Summary.Misses,
		SummaryCacheEntries:    cs.Summary.Entries,
		ResultCacheHits:        cs.Result.Hits,
		ResultCacheMisses:      cs.Result.Misses,
		ResultCacheEntries:     cs.Result.Entries,
		CacheSingleflightWaits: cs.Summary.Waits + cs.Result.Waits,
		CacheEpoch:             cs.Epoch,
	}
	if ri := s.cfg.Recovery; ri != nil {
		st.RecoveryRan = true
		st.RecoveryFallback = ri.Fallback
		st.RecoveryGeneration = ri.Generation
		st.RecoverySource = ri.Loaded
		st.RecoveryErrors = ri.Errors
		st.RecoverySwept = ri.Swept
	}
	if g := s.cfg.Snapshots; g != nil {
		ss := g.Stats()
		st.SnapshotStore = &ss
	}
	st.Ring = s.RingStatus()
	return st
}

// --- coalesced dispatch ---

// dispatchQueries answers one micro-batch through Engine.QueryBatch, after
// collapsing duplicate probes: concurrent requests for the same image (hot
// queries are the norm under real fan-in) share one engine call, the same
// way a CDN collapses identical in-flight fetches. The per-job topK may
// differ across the batch: the engine runs at the batch maximum and each
// job's reply is trimmed to its own budget, which is exact because a
// query's result list at a smaller topK is a prefix of the same query's
// list at a larger one (ranking happens before truncation). Collapsed
// duplicates therefore receive byte-identical answers to what a private
// engine call would have produced.
func (s *Server) dispatchQueries(batch []queryJob) {
	// A panic in the engine (or in this dispatch logic) runs on the
	// coalescer's goroutine, outside net/http's per-connection recover —
	// unguarded it would crash the daemon. Convert it into an error reply
	// to every job of this batch; the non-blocking sends skip jobs already
	// answered before the panic.
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("server: query batch panicked: %v", p)
			for _, j := range batch {
				select {
				case j.resp <- queryResp{err: err}:
				default:
				}
			}
		}
	}()
	// Failpoint: Delay simulates a slow engine under the coalescer, Error
	// fails the whole batch, Panic exercises the containment above.
	if err := failpoint.Eval(failpoint.ServerDispatchQuery); err != nil {
		err = fmt.Errorf("server: query dispatch failed: %w", err)
		for _, j := range batch {
			select {
			case j.resp <- queryResp{err: err}:
			default:
			}
		}
		return
	}
	now := time.Now()
	maxK := 0
	for _, j := range batch {
		if j.topK > maxK {
			maxK = j.topK
		}
		s.met.queueWait.Record(now.Sub(j.submitted))
	}
	s.met.queryBatch.Record(int64(len(batch)))

	// Group jobs by probe content. Hash buckets are verified pixel-for-pixel
	// so a collision can never splice two distinct probes together.
	type group struct {
		img  *simimg.Image
		jobs []int
	}
	groups := make([]group, 0, len(batch))
	byHash := make(map[uint64][]int, len(batch))
groupJobs:
	for i, j := range batch {
		h := hashImage(j.img)
		for _, gi := range byHash[h] {
			if sameImage(groups[gi].img, j.img) {
				groups[gi].jobs = append(groups[gi].jobs, i)
				continue groupJobs
			}
		}
		byHash[h] = append(byHash[h], len(groups))
		groups = append(groups, group{img: j.img, jobs: []int{i}})
	}
	if d := len(batch) - len(groups); d > 0 {
		s.met.queryDeduped.Add(int64(d))
	}

	imgs := make([]*simimg.Image, len(groups))
	for gi, g := range groups {
		imgs[gi] = g.img
	}
	brs := s.Engine().QueryBatch(imgs, maxK, s.cfg.BatchWorkers)
	for gi, g := range groups {
		for _, i := range g.jobs {
			j := batch[i]
			res, err := brs[gi].Results, brs[gi].Err
			if err == nil && len(res) > j.topK {
				res = res[:j.topK]
			}
			j.resp <- queryResp{results: res, err: err}
		}
	}
}

// hashImage fingerprints a probe's dimensions and exact pixel bits (FNV-1a).
func hashImage(im *simimg.Image) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(im.W))
	mix(uint64(im.H))
	for _, p := range im.Pix {
		mix(math.Float64bits(p))
	}
	return h
}

// sameImage reports exact equality of two rasters.
func sameImage(a, b *simimg.Image) bool {
	if a.W != b.W || a.H != b.H || len(a.Pix) != len(b.Pix) {
		return false
	}
	for i := range a.Pix {
		if math.Float64bits(a.Pix[i]) != math.Float64bits(b.Pix[i]) {
			return false
		}
	}
	return true
}

// dispatchInserts commits one micro-batch through Engine.InsertBatch.
// InsertBatch stops at the first failing photo; the loop reports that
// failure to its requester and resumes with the remainder, so one bad
// insert (e.g. a duplicate ID) does not poison the requests coalesced
// behind it.
func (s *Server) dispatchInserts(batch []insertJob) {
	// Same panic containment as dispatchQueries: fail the batch, not the
	// process.
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("server: insert batch panicked: %v", p)
			for _, j := range batch {
				select {
				case j.resp <- err:
				default:
				}
			}
		}
	}()
	if err := failpoint.Eval(failpoint.ServerDispatchInsert); err != nil {
		err = fmt.Errorf("server: insert dispatch failed: %w", err)
		for _, j := range batch {
			select {
			case j.resp <- err:
			default:
			}
		}
		return
	}
	now := time.Now()
	photos := make([]*simimg.Photo, len(batch))
	for i, j := range batch {
		photos[i] = j.photo
		s.met.queueWait.Record(now.Sub(j.submitted))
	}
	s.met.insertBatch.Record(int64(len(batch)))

	rest := batch
	for len(rest) > 0 {
		ps := make([]*simimg.Photo, len(rest))
		for i, j := range rest {
			ps[i] = j.photo
		}
		st, err := s.Engine().InsertBatch(ps, s.cfg.BatchWorkers)
		for i := 0; i < st.Photos && i < len(rest); i++ {
			rest[i].resp <- nil
		}
		if err == nil {
			break
		}
		if st.Photos >= len(rest) {
			break
		}
		rest[st.Photos].resp <- err
		rest = rest[st.Photos+1:]
	}
}
