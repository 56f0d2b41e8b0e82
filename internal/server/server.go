// Package server is the network serving layer of the FAST reproduction:
// an HTTP/JSON API over net/http wrapping a core.Engine:
//
//   - admission control: a slot semaphore plus a bounded waiting line;
//     work beyond both limits is refused with 429 + Retry-After instead of
//     being allowed to pile onto the scheduler;
//   - direct engine calls: every query and insert runs its engine call on
//     its own handler goroutine — Engine.Query against the lock-free
//     published view, Engine.Insert under the engine lock with one view
//     publish per photo — so nothing waits on a batching window and a
//     request is acknowledged only after its engine call returned;
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
	// Window is ignored: every insert runs its own engine call.
	//
	// Deprecated: kept only because the repository benchmark still sets it;
	// removed with the next benchmark change.
	Window time.Duration
	// BatchMax is ignored, like Window.
	//
	// Deprecated: kept only because the repository benchmark still sets it;
	// removed with the next benchmark change.
	BatchMax int
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
	inserts      metrics.Counter
	insertErrors metrics.Counter
	deletes      metrics.Counter
	rejected     metrics.Counter
	snapshots    metrics.Counter
}

// Server wraps an engine with the HTTP serving layer. Construct with New,
// mount Handler on an http.Server, and on shutdown call BeginDrain, then
// http.Server.Shutdown: once Shutdown returns, every acknowledged
// mutation is in the engine.
type Server struct {
	cfg Config

	engineMu sync.RWMutex
	engine   *core.Engine

	adm      *admission
	met      serverMetrics
	draining atomic.Bool
	start    time.Time

	// Shard-mode placement state (nil without Config.Shard); see ring.go.
	shardCfg ShardConfig
	ringMu   sync.Mutex
	ring     *shardRing
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
	s.adm = newAdmission(cfg.MaxInflight, cfg.MaxQueue, &s.met.rejected)
	if cfg.Shard != nil {
		s.shardCfg = *cfg.Shard
		ring, err := newShardRing(s.shardCfg)
		if err != nil {
			return nil, err
		}
		s.ring = ring
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

// Close does nothing: the server owns no goroutine or resource beyond its
// handlers. Kept only because the repository benchmark still defers it;
// removed with the next benchmark change.
func (s *Server) Close() {}

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
	// Failpoint: Delay is a slow engine holding this request's admission
	// slot, Error fails the query, Panic unwinds into net/http's
	// per-request recover.
	var results []core.SearchResult
	if err = failpoint.Eval(failpoint.ServerDispatchQuery); err == nil {
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
	// Failpoint: Delay is a slow engine holding this request's admission
	// slot, Error fails the insert, Panic unwinds into net/http's
	// per-request recover.
	if err = failpoint.Eval(failpoint.ServerDispatchInsert); err == nil {
		err = s.Engine().Insert(&simimg.Photo{ID: req.ID, Img: img})
	}
	if err != nil {
		s.met.insertErrors.Inc()
		writeJSON(w, http.StatusUnprocessableEntity, NewErrorResponse("insert failed", err))
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
		writeJSON(w, http.StatusUnprocessableEntity, NewErrorResponse("delete failed", err))
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
	st := Stats{
		Queries:           s.met.queries.Load(),
		QueryErrors:       s.met.queryErrors.Load(),
		Inserts:           s.met.inserts.Load(),
		InsertErrors:      s.met.insertErrors.Load(),
		Deletes:           s.met.deletes.Load(),
		AdmissionRejected: s.met.rejected.Load(),
		Snapshots:         s.met.snapshots.Load(),
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
