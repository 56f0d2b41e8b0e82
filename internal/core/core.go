// Package core implements FAST itself: the near-real-time searchable data
// analytics engine of the paper, assembled from the four modules of
// Section III:
//
//   - FE (Feature Extraction): DoG interest points + PCA-SIFT descriptors
//     (internal/feature);
//   - SM (Summarization): per-image Bloom-filter summaries of the quantized
//     descriptors, stored sparsely (internal/bloom);
//   - SA (Semantic Aggregation): locality-sensitive hashing over the
//     summaries (internal/lsh) — MinHash banding in Jaccard space by
//     default, with the paper's p-stable family available for ablation;
//   - CHS (Cuckoo-Hashing Storage): flat-structured addressing of the
//     per-image index records with constant-width parallel probing
//     (internal/cuckoo).
//
// A query renders the same pipeline on the probe image, collects LSH
// candidates in O(1), fetches their summaries through the flat cuckoo table
// (probes are independent and parallelizable), ranks them by summary
// similarity, and returns the correlated group. False positives are
// tolerated (the use case post-verifies results); false negatives are
// suppressed by MinHash banding (a correlated pair need collide in only one
// band) and by group expansion, which re-probes the index with the stored
// summaries of the top hits.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/cache"
	"github.com/fastrepro/fast/internal/cuckoo"
	"github.com/fastrepro/fast/internal/feature"
	"github.com/fastrepro/fast/internal/lsh"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/tiered"
)

// SearchResult is one ranked hit.
type SearchResult struct {
	ID    uint64
	Score float64 // Jaccard similarity of Bloom summaries, in [0, 1]
}

// BuildStats reports index-construction work, split the way Figure 3
// splits it: feature representation vs index storage.
type BuildStats struct {
	Photos      int
	FeatureTime time.Duration // detection + description (FE)
	SummaryTime time.Duration // Bloom summarization (SM)
	IndexTime   time.Duration // LSH insertion + cuckoo storage (SA+CHS)
	Descriptors int
}

// Probe is a query input: the image, plus an optional geo hint used by
// tag-based schemes (RNPE indexes location views, so the use case supplies
// the place the child was last seen).
type Probe struct {
	Img *simimg.Image
	Loc *simimg.GeoPoint
}

// SimCost accumulates the storage work a pipeline incurs. The FAST engine
// reports counts only (Accesses, BytesMoved); the baselines also report
// modeled time from the store package's device models, and the cluster-scale
// experiments convert FAST's counts with the same models.
type SimCost struct {
	StorageTime time.Duration // modeled storage latency (disk or RAM)
	ComputeTime time.Duration // modeled CPU work not executed for real
	Accesses    int64         // storage operations performed
	BytesMoved  int64         // bytes read/written from the store
}

// Pipeline is the scheme-agnostic interface the evaluation harness drives;
// the FAST engine and all three baselines implement it.
type Pipeline interface {
	Name() string
	// Build indexes the corpus from scratch.
	Build(photos []*simimg.Photo) (BuildStats, error)
	// Insert adds one photo to an existing index.
	Insert(p *simimg.Photo) error
	// Search returns up to topK hits for the probe, best first.
	Search(probe Probe, topK int) ([]SearchResult, error)
	// IndexBytes reports the index's resident size (Table IV).
	IndexBytes() int64
	// SimCost reports accumulated storage work: counts for FAST, counts
	// and modeled time for the baselines.
	SimCost() SimCost
}

// Config parameterizes the engine.
type Config struct {
	// PCADim is the PCA-SIFT dimensionality; 0 selects the library default.
	PCADim int
	// TrainingSample is how many corpus images train the PCA basis;
	// 0 means 32.
	TrainingSample int
	// Detect configures interest-point detection.
	Detect feature.DetectConfig
	// Summary is the Bloom summary geometry.
	Summary bloom.SummaryConfig
	// LSH parameterizes semantic aggregation: MinHash banding over the
	// sparse Bloom summaries (the Jaccard-space LSH family; see the
	// internal/lsh package for why the paper's p-stable family is kept as
	// an ablation rather than the default).
	LSH lsh.MinHashParams
	// TableCapacity sizes the cuckoo table; 0 derives it from the corpus
	// (2x photos, minimum 1024).
	TableCapacity int
	// Neighborhood is the flat-cuckoo ν; 0 means cuckoo.DefaultNeighborhood.
	Neighborhood int
	// GroupExpand re-queries the LSH index with the summaries of the top-N
	// verified hits and merges their correlated groups into the result (the
	// paper's Semantic Aggregation returns whole correlation-aware groups,
	// and a stored group member's summary recalls its groupmates far more
	// reliably than the noisy probe). 0 means 8; negative disables.
	GroupExpand int
	// IngestWorkers is the worker count of the staged ingest pipeline that
	// Build and InsertBatch fan feature extraction + summarization across.
	// 0 means GOMAXPROCS; 1 selects the fully sequential path. Index
	// contents are identical at every setting (the committer stores
	// summaries in input order), so this is purely a throughput knob.
	IngestWorkers int
	// SummaryCache bounds the probe-summary memoization tier (T1): up to
	// this many Bloom summaries keyed by a 128-bit raster fingerprint. A
	// summary is a pure function of the pixels under the trained basis, so
	// entries never invalidate (Build retrains and therefore resets the
	// tier) and a hit skips FE+SM entirely. 0 disables the tier. Cached
	// answers are byte-identical to uncached ones; this is purely a
	// throughput knob for workloads that repeat probes.
	SummaryCache int
	// ResultCache bounds the ranked-result tier (T2): up to this many
	// result lists keyed by (summary fingerprint, topK, view epoch). Every
	// mutation publishes a view under a new epoch, so entries from older
	// index states stop being addressable and can never be served stale. 0
	// disables the tier. Like SummaryCache, answers are byte-identical either way.
	ResultCache int
}

// minScore drops candidates below this summary similarity, on both tiers
// and in group expansion.
const minScore = 0.05

func (c Config) withDefaults() Config {
	if c.TrainingSample == 0 {
		c.TrainingSample = 32
	}
	c.Summary = c.Summary.WithDefaults()
	if c.Neighborhood == 0 {
		c.Neighborhood = cuckoo.DefaultNeighborhood
	}
	if c.GroupExpand == 0 {
		c.GroupExpand = 8
	}
	return c
}

// entry is the per-photo index record: the photo's sparse summary and
// nothing else. The read path scores it against the probe's packed words
// (see view.go), so no packed copy is kept. A zero entry (nil summary) is a
// deletion tombstone.
type entry struct {
	id      uint64
	summary *bloom.Sparse
}

// Engine is the FAST index.
type Engine struct {
	cfg Config

	// mu serializes mutators and excludes them from readers of the live
	// structures below; index and table have no locks of their own. table is
	// the engine's only id → slot map (the paper's CHS addressing).
	mu      sync.RWMutex
	pcasift *feature.PCASIFT
	index   *lsh.MinHash
	table   *cuckoo.Flat
	entries []entry // table values are indexes into this slice

	// view is the epoch-published immutable read snapshot (see view.go).
	// Mutators publish the next one under mu with one atomic store;
	// queries read it without ever taking mu. basisGen
	// counts PCA retrainings (guarded by mu) and keys the T1 summary cache
	// so entries computed against a superseded basis can never be reused.
	view     atomic.Pointer[readView]
	basisGen uint64

	// Summary accesses and the bytes they moved: one per stored entry and
	// per candidate or groupmate a query fetches (see SimCost).
	accesses    atomic.Int64
	accessBytes atomic.Int64

	// epoch counts published views; publishLocked is its only writer and
	// stamps it on the view it publishes. Guarded by mu. The result tier of
	// the read-path cache (see querycache.go) keys on the view's epoch. The
	// cache pointers are atomic so ConfigureCache can swap tiers in and out
	// while queries run.
	epoch       uint64
	sumCache    atomic.Pointer[cache.Cache[*bloom.Sparse]]
	resCache    atomic.Pointer[cache.Cache[[]SearchResult]]
	sumCacheCap atomic.Int64 // configured T1 bound (0 = disabled)
	resCacheCap atomic.Int64 // configured T2 bound (0 = disabled)

	// The disk-resident cold tier (see tiered.go); nil until
	// EnableColdTier/AdoptColdTier attaches one. All guarded by mu;
	// lock-free queries reach the cold tier only through the view snapshot
	// publishLocked captures. Lock order is always e.mu before the tiered
	// store's internal lock.
	cold          *tiered.Store
	coldWatermark int           // hot-tier bound; 0 leaves migration manual
	coldBatch     int           // compactor migration batch size
	coldKick      chan struct{} // non-blocking over-watermark nudge to the compactor
	coldStop      chan struct{} // closed to stop the compactor
	coldDone      chan struct{} // closed by the compactor on exit
}

// NewEngine returns an unbuilt engine; Build must run before Query/Insert.
func NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults()}
	e.ConfigureCache(e.cfg.SummaryCache, e.cfg.ResultCache)
	return e
}

// Name implements Pipeline.
func (e *Engine) Name() string { return "FAST" }

// Build trains the PCA basis on a sample of the corpus and indexes every
// photo through the staged ingest pipeline at the configured worker count
// for the FE+SM stage (Config.IngestWorkers; GOMAXPROCS by default, 1 is
// fully sequential). The ordered committer keeps index contents and
// BuildStats counters identical at every worker count; FeatureTime and
// SummaryTime sum the per-photo stage costs across workers (CPU work, not
// wall time). It implements Pipeline.
func (e *Engine) Build(photos []*simimg.Photo) (BuildStats, error) {
	if len(photos) == 0 {
		return BuildStats{}, errors.New("core: empty corpus")
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	if err := e.trainLocked(photos); err != nil {
		return BuildStats{}, err
	}
	if err := e.allocLocked(len(photos)); err != nil {
		return BuildStats{}, err
	}
	// The retrained basis invalidates every memoized summary (T1 entries are
	// pure functions of pixels only under a fixed basis). Results of the old
	// index are keyed by older view epochs and can never be served again,
	// but they would only take up room. Drop both tiers.
	e.ConfigureCache(e.CacheConfig())

	st, err := e.runIngest(e.pcasift, photos, e.cfg.IngestWorkers, func(id uint64, sp *bloom.Sparse) error {
		if err := e.storeLocked(id, sp); err != nil {
			return fmt.Errorf("core: indexing photo %d: %w", id, err)
		}
		return nil
	})
	// Publish once: queries answer from the previous view for the whole
	// build and switch to the complete new index in one step (on error the
	// partially built state is published, so the view matches the live
	// structures a failed Build leaves behind).
	e.publishLocked()
	return st, err
}

// Insert adds one photo to a built index. It implements Pipeline. It is
// InsertBatch of that one photo: FE+SM runs inline with no engine lock held,
// and only the SA+CHS store step takes the write lock.
func (e *Engine) Insert(p *simimg.Photo) error {
	_, err := e.InsertBatch([]*simimg.Photo{p}, 1)
	return err
}

// prepared is the output of the FE+SM front half for one photo: everything
// the SA+CHS committer needs to store it, plus the per-stage timings that
// feed BuildStats.
type prepared struct {
	sparse      *bloom.Sparse
	descs       int
	featureTime time.Duration
	summaryTime time.Duration
}

// prepareSummary runs FE+SM for one image against the given trained basis.
// It is the single implementation of the pipeline's read-only front half:
// Build and InsertBatch (and so Insert) go through it. It reads
// no mutable engine state, so callers may run it without holding the engine
// lock, from any number of goroutines.
func (e *Engine) prepareSummary(pca *feature.PCASIFT, img *simimg.Image) (prepared, error) {
	var pr prepared
	// FE: interest points and PCA-SIFT descriptors.
	t0 := time.Now()
	_, descs, err := pca.DescribeAll(img, e.cfg.Detect)
	if err != nil {
		return pr, err
	}
	pr.featureTime = time.Since(t0)
	pr.descs = len(descs)

	// SM: Bloom summary of the descriptor set ([]linalg.Vector feeds
	// Summarize directly; no [][]float64 copy).
	t1 := time.Now()
	filter, err := bloom.Summarize(descs, e.cfg.Summary)
	if err != nil {
		return pr, err
	}
	pr.sparse = bloom.ToSparse(filter)
	pr.summaryTime = time.Since(t1)
	return pr, nil
}

// Len returns the number of indexed photos (excluding deleted ones),
// counting both tiers when a cold tier is attached.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.hotLenLocked() + len(e.coldOnlyLocked())
}

// hotLenLocked counts the live RAM-resident photos.
func (e *Engine) hotLenLocked() int {
	if e.table == nil {
		return 0
	}
	return e.table.Len()
}

// slotLocked resolves a RAM-resident photo to its entry slot through the
// flat table's read-only probe. Callers hold e.mu in either mode.
func (e *Engine) slotLocked(id uint64) (int, bool) {
	if e.table == nil {
		return 0, false
	}
	r := e.table.LookupBatch([]uint64{id}, 1)[0]
	return int(r.Value), r.Found
}

// coldOnlyLocked lists the live cold entries not also resident in RAM. The
// two tiers are disjoint except inside the tiered/migrate crash window,
// where a batch is briefly dual-resident; dropping the overlap keeps
// Len/Stats/IDs truthful even there.
func (e *Engine) coldOnlyLocked() []uint64 {
	if e.cold == nil {
		return nil
	}
	ids := e.cold.AppendIDs(nil)
	only := ids[:0]
	for i, r := range e.table.LookupBatch(ids, 1) {
		if !r.Found {
			only = append(only, ids[i])
		}
	}
	return only
}

// IDs returns the live photo IDs in ascending order, across both tiers.
// The cluster tier uses it to subset a union-built engine down to one
// shard's owned photos (and the placement diagnostics to measure ring
// balance over a real corpus).
func (e *Engine) IDs() []uint64 {
	e.mu.RLock()
	ids := e.coldOnlyLocked()
	for _, ent := range e.entries {
		if ent.summary != nil {
			ids = append(ids, ent.id)
		}
	}
	e.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// GroupExpand reports the effective group-expansion setting (negative
// means disabled). Shard-mode serving checks it: expansion re-queries the
// index with stored summaries of the top hits, which crosses shard
// boundaries and would break the router's byte-identity guarantee.
func (e *Engine) GroupExpand() int { return e.cfg.GroupExpand }

// Summarize runs FE+SM on an image without touching the index, for the
// smartphone-side client and the Summarize + QuerySummary split. It reads
// the published view's basis, so it never blocks on a concurrent Build. It
// bypasses the summary cache (which holds sparse summaries only), so the
// returned filter is always freshly computed and the caller's to mutate.
func (e *Engine) Summarize(img *simimg.Image) (*bloom.Filter, error) {
	v := e.view.Load()
	if v == nil {
		return nil, errors.New("core: engine not built")
	}
	return e.summarizeWith(v.pca, img)
}

// summarizeWith is the FE+SM pipeline against an explicit trained basis; it
// reads no mutable engine state.
func (e *Engine) summarizeWith(pca *feature.PCASIFT, img *simimg.Image) (*bloom.Filter, error) {
	_, descs, err := pca.DescribeAll(img, e.cfg.Detect)
	if err != nil {
		return nil, err
	}
	return bloom.Summarize(descs, e.cfg.Summary)
}

// Search implements Pipeline; the geo hint is ignored (FAST is
// content-based).
func (e *Engine) Search(probe Probe, topK int) ([]SearchResult, error) {
	return e.Query(probe.Img, topK)
}

// Query answers a probe image: FE+SM on the probe, then QuerySummary with a
// single scoring worker. The whole query runs against the published read
// view without acquiring the engine lock (see view.go). With the cache
// tiers enabled, a repeated raster hits the summary tier (skipping FE+SM)
// and a repeated summary at an unchanged index epoch hits the result tier
// (skipping the search as well); answers are byte-identical in all cases
// to QueryUncached, which bypasses both tiers.
func (e *Engine) Query(img *simimg.Image, topK int) ([]SearchResult, error) {
	if topK <= 0 {
		return nil, fmt.Errorf("core: topK must be positive, got %d", topK)
	}
	ps, err := e.probeSummary(img)
	if err != nil {
		return nil, err
	}
	return e.QuerySummary(ps, topK, 1)
}

// QuerySummary answers a prepared probe summary through the search back
// half only (SA candidate collection, CHS fetch, ranking), skipping FE+SM
// entirely, with the given number of candidate-scoring workers (the
// multicore path of Figure 7). It returns the exact results a full Query
// of the originating probe would return, at every worker count: Summarize +
// bloom.ToSparse + QuerySummary ≡ Query. A probe must pass checkSummary,
// like every stored summary, so a foreign probe is an error on every tier.
// A nil summary or one with no set bits answers nil: a featureless probe
// has nothing to aggregate on.
func (e *Engine) QuerySummary(ps *bloom.Sparse, topK, workers int) ([]SearchResult, error) {
	if topK <= 0 {
		return nil, fmt.Errorf("core: topK must be positive, got %d", topK)
	}
	if ps == nil {
		return nil, nil
	}
	if err := checkSummary(ps, e.cfg.Summary); err != nil {
		return nil, fmt.Errorf("core: probe summary: %w", err)
	}
	if len(ps.Bits) == 0 {
		return nil, nil
	}
	return e.searchCached(ps, topK, workers)
}

// sortResults orders by descending score, then ascending ID for stability.
func sortResults(rs []SearchResult) {
	// Insertion sort is fine at candidate-set sizes; keeps the package
	// dependency-light and deterministic.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && less(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func less(a, b SearchResult) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// IndexBytes implements Pipeline: the resident size of FAST's index — the
// sparse summaries plus the LSH tables (8 bytes per reference) plus the
// cuckoo cells (16 bytes each).
func (e *Engine) IndexBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.indexBytesLocked()
}

// indexBytesLocked is the one definition of the resident index size, shared
// by IndexBytes and Stats.
func (e *Engine) indexBytesLocked() int64 {
	var total int64
	for _, ent := range e.entries {
		if ent.summary != nil {
			total += int64(ent.summary.SizeBytes())
		}
	}
	if e.index != nil {
		total += int64(e.index.Stats().TotalRefs) * 8
	}
	if e.table != nil {
		total += int64(e.table.Cap()) * 16
	}
	return total
}

// EngineStats is a point-in-time aggregate of the engine's observable
// state, collected under a single read lock so the fields are mutually
// consistent. The serving layer reports it verbatim from /v1/stats.
type EngineStats struct {
	Built       bool
	Photos      int    // live (non-deleted) indexed photos
	Entries     int    // entry slots including deletion tombstones
	Epoch       uint64 // epoch of the published lock-free read view
	IndexBytes  int64  // resident index size (summaries + LSH refs + cuckoo cells)
	LSHShards   int    // copy-on-write shards per LSH band
	TableShards int    // copy-on-write shards of the flat table
	Table       cuckoo.Stats
	LSH         lsh.BucketStats
	Tiered      TieredStats // cold-tier block; Enabled=false when detached
}

// Stats returns a consistent aggregate of the engine's counters: photo and
// tombstone counts, resident index size, copy-on-write shard geometry, the
// flat table's and LSH index's statistics (zero before Build) and the
// cold-tier block.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	hot := e.hotLenLocked()
	st := EngineStats{
		Built:      e.pcasift != nil,
		Photos:     hot,
		Entries:    len(e.entries),
		Epoch:      e.PublishedEpoch(),
		IndexBytes: e.indexBytesLocked(),
	}
	if e.index != nil {
		st.LSH = e.index.Stats()
		st.LSHShards = e.index.Shards()
	}
	if e.table != nil {
		st.Table = e.table.Stats()
		st.TableShards = e.table.Shards()
	}
	if e.cold != nil {
		cs := e.cold.Stats()
		coldOnly := len(e.coldOnlyLocked())
		st.Photos += coldOnly // IndexBytes stays RAM-resident-only
		st.Tiered = TieredStats{
			Enabled:             true,
			HotEntries:          hot,
			ColdEntries:         coldOnly,
			Segments:            cs.Segments,
			Tombstones:          cs.Tombstones,
			ColdDiskBytes:       cs.DiskBytes,
			Migrations:          cs.Migrations,
			Compactions:         cs.Compactions,
			SpillProbes:         cs.SpillProbes,
			ColdPostingsScanned: cs.PostingsScanned,
			ColdBytesScanned:    cs.BytesScanned,
			Watermark:           e.coldWatermark,
		}
	}
	return st
}

// countAccesses adds n summary accesses that moved bytes.
func (e *Engine) countAccesses(n, bytes int64) {
	e.accesses.Add(n)
	e.accessBytes.Add(bytes)
}

// SimCost implements Pipeline with counts only: summary accesses and their
// bytes, plus the attached cold tier's bucket probes and bytes scanned. The
// engine models no time; internal/experiments converts the counts.
func (e *Engine) SimCost() SimCost {
	cs := e.ColdStats()
	return SimCost{
		Accesses:   e.accesses.Load() + cs.SpillProbes,
		BytesMoved: e.accessBytes.Load() + cs.BytesScanned,
	}
}

var _ Pipeline = (*Engine)(nil)
