package server

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/store"
)

// The wire format of the /v1 API. Probe and insert images travel as raw
// float64 rasters (little-endian, base64 in JSON) rather than quantized
// PGM, so a query answered over the network is bit-identical to the same
// query issued against the embedded engine — the serving layer adds
// transport, not approximation.

// WireImage is a grayscale raster in transit.
type WireImage struct {
	W   int    `json:"w"`
	H   int    `json:"h"`
	Pix string `json:"pix"` // base64(std) of W*H little-endian float64s
}

// maxWirePixels bounds decoded rasters (64 MB of float64s) so a malicious
// request cannot ask the server to allocate unbounded memory.
const maxWirePixels = 1 << 23

// EncodeImage converts a raster to its wire form.
func EncodeImage(im *simimg.Image) (WireImage, error) {
	if im == nil || im.W <= 0 || im.H <= 0 || len(im.Pix) != im.W*im.H {
		return WireImage{}, fmt.Errorf("server: malformed image")
	}
	buf := make([]byte, 8*len(im.Pix))
	for i, v := range im.Pix {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return WireImage{W: im.W, H: im.H, Pix: base64.StdEncoding.EncodeToString(buf)}, nil
}

// DecodeImage converts a wire image back to a raster, validating the
// dimensions against the payload length. Each dimension is bounded before
// the product is taken in 64-bit, so huge W/H values cannot overflow the
// pixel-count check into a small (or zero) byte budget.
func DecodeImage(wi WireImage) (*simimg.Image, error) {
	if wi.W <= 0 || wi.H <= 0 || wi.W > maxWirePixels || wi.H > maxWirePixels ||
		int64(wi.W)*int64(wi.H) > maxWirePixels {
		return nil, fmt.Errorf("server: unreasonable image dimensions %dx%d", wi.W, wi.H)
	}
	buf, err := base64.StdEncoding.DecodeString(wi.Pix)
	if err != nil {
		return nil, fmt.Errorf("server: image payload: %w", err)
	}
	if len(buf) != 8*wi.W*wi.H {
		return nil, fmt.Errorf("server: image payload is %d bytes, want %d for %dx%d",
			len(buf), 8*wi.W*wi.H, wi.W, wi.H)
	}
	im := simimg.New(wi.W, wi.H)
	for i := range im.Pix {
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("server: non-finite pixel at index %d", i)
		}
		im.Pix[i] = v
	}
	return im, nil
}

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	Image WireImage `json:"image"`
	TopK  int       `json:"topk"`
}

// WireResult is one ranked hit.
type WireResult struct {
	ID    uint64  `json:"id"`
	Score float64 `json:"score"`
}

// QueryResponse is the body of a successful /v1/query.
//
// Partial and Stale are set only by the cluster router. Partial means the
// responding shards provably do not cover the whole key space (under the
// configured replica factor), so results may be missing entries. Stale
// means the answer is complete but at least one contributing shard had
// unacknowledged replica writes pending, so very recent mutations may not
// be reflected. A single node never sets either.
//
// IndexEpoch is the serving engine's published read-view epoch sampled
// before the query ran — a freshness token: the answer reflects at least
// every mutation whose acknowledgment carried an epoch ≤ this value. The
// router compares it against the largest epoch it has seen acknowledged by
// the shard to detect stale replicas.
type QueryResponse struct {
	Results    []WireResult `json:"results"`
	Partial    bool         `json:"partial,omitempty"`
	Stale      bool         `json:"stale,omitempty"`
	IndexEpoch uint64       `json:"index_epoch,omitempty"`
}

// FetchRequest is the body of POST /v1/snapshot/fetch: the chunk IDs the
// caller already holds. The response is a binary FASTDLT1 delta stream
// containing the newest generation's manifest plus every referenced chunk
// not listed here.
type FetchRequest struct {
	Have []string `json:"have"`
}

// InsertRequest is the body of POST /v1/insert.
type InsertRequest struct {
	ID    uint64    `json:"id"`
	Image WireImage `json:"image"`
}

// DeleteRequest is the body of POST /v1/delete.
type DeleteRequest struct {
	ID uint64 `json:"id"`
}

// OKResponse acknowledges a mutation. Epoch, when present, is the engine's
// published read-view epoch after the mutation committed: any later query
// reporting an IndexEpoch ≥ this value is guaranteed to reflect the
// mutation (view epochs are monotonic and a mutation publishes before its
// acknowledgment is written). The router records it per shard as the
// freshness floor replica reads are judged against.
type OKResponse struct {
	OK    bool   `json:"ok"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// RingConfigWire is a placement generation on the wire: the exact inputs
// of placement.New plus the replica factor the cluster runs at. Identical
// configs build identical rings (and fingerprints) on every node.
type RingConfigWire struct {
	Shards   int    `json:"shards"`
	VNodes   int    `json:"vnodes,omitempty"`
	Seed     uint64 `json:"seed"`
	Epoch    uint64 `json:"epoch"`
	Replicas int    `json:"replicas"`
}

// RingUpdateRequest is the body of POST /v1/ring — one step of the
// two-phase live reconfiguration protocol (see DESIGN.md, "Replication &
// reconfiguration"). Phase is "prepare" (install the pending ring and
// start acquiring newly-owned entries in the background), "commit" (shed
// no-longer-owned entries and make the pending ring current; refused
// until the background acquire finished) or "abort" (drop the pending
// ring; already-acquired entries are kept as harmless duplicates until a
// later commit sheds them).
type RingUpdateRequest struct {
	Phase string         `json:"phase"`
	Ring  RingConfigWire `json:"ring"`
}

// RingStatusResponse is the body of GET /v1/ring and the reply to every
// /v1/ring phase. State is "steady" (no reconfiguration in flight),
// "migrating" (prepare accepted, background acquire running), "ready"
// (acquire finished, commit will be accepted) or "failed" (acquire
// errored; re-prepare restarts it — the current ring serves throughout).
type RingStatusResponse struct {
	Enabled            bool            `json:"enabled"`
	ShardIndex         int             `json:"shard_index"`
	State              string          `json:"state"`
	Current            RingConfigWire  `json:"current"`
	CurrentFingerprint uint64          `json:"current_fingerprint"`
	Pending            *RingConfigWire `json:"pending,omitempty"`
	PendingFingerprint uint64          `json:"pending_fingerprint,omitempty"`
	Acquired           int             `json:"acquired"` // entries adopted from peers for the pending ring
	Shed               int             `json:"shed"`     // entries dropped at the last commit
	LastError          string          `json:"last_error,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON reply. Code is set when
// the error wraps one of the typed engine errors a caller may branch on
// (see NewErrorResponse), so callers never match on the message text.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// errorCodes names the typed engine errors on the wire.
var errorCodes = []struct {
	code string
	err  error
}{
	{"already_indexed", core.ErrAlreadyIndexed},
	{"not_indexed", core.ErrNotIndexed},
}

// NewErrorResponse is the reply body for a failed operation: "what: err",
// with the code of the typed engine error err wraps, if any.
func NewErrorResponse(what string, err error) ErrorResponse {
	er := ErrorResponse{Error: what + ": " + err.Error()}
	for _, c := range errorCodes {
		if errors.Is(err, c.err) {
			er.Code = c.code
			break
		}
	}
	return er
}

// CodeError is the typed engine error a wire code names, or nil.
func CodeError(code string) error {
	for _, c := range errorCodes {
		if c.code == code {
			return c.err
		}
	}
	return nil
}

// Stats is the body of GET /v1/stats. Field-by-field documentation lives
// in DESIGN.md ("Serving layer"); briefly: Queries/Inserts/Deletes count
// requests that reached the engine and AdmissionRejected counts 429s.
// Every request runs its own engine call, so nothing is batched and
// nothing waits on a window: QueryDeduped, QueryBatchMean and
// QueueWaitMeanNs are always 0.
type Stats struct {
	// Serving counters.
	Queries           int64   `json:"queries"`            // queries answered by the engine
	QueryErrors       int64   `json:"query_errors"`       // queries that returned an engine error
	QueryDeduped      int64   `json:"query_deduped"`      // always 0 (nothing is batched); removed with the next benchmark change
	Inserts           int64   `json:"inserts"`            // photos inserted
	InsertErrors      int64   `json:"insert_errors"`      // inserts that returned an engine error
	Deletes           int64   `json:"deletes"`            // photos deleted
	AdmissionRejected int64   `json:"admission_rejected"` // requests refused with 429 (queue full)
	Snapshots         int64   `json:"snapshots"`          // hot snapshots streamed
	QueryBatchMean    float64 `json:"query_batch_mean"`   // always 0, like QueryDeduped
	QueueWaitMeanNs   int64   `json:"queue_wait_mean_ns"` // always 0, like QueryDeduped
	Draining          bool    `json:"draining"`           // true once graceful shutdown began
	UptimeNs          int64   `json:"uptime_ns"`          // time since the server was constructed

	// Engine state (point-in-time, mutually consistent).
	Photos      int    `json:"photos"`       // live indexed photos (both tiers)
	Entries     int    `json:"entries"`      // entry slots including deletion tombstones
	IndexEpoch  uint64 `json:"index_epoch"`  // epoch of the published lock-free read view
	IndexBytes  int64  `json:"index_bytes"`  // resident index size
	LSHShards   int    `json:"lsh_shards"`   // copy-on-write shards per LSH band
	TableShards int    `json:"table_shards"` // copy-on-write shards of the flat cuckoo table

	// Disk-resident cold tier (see DESIGN.md, "Tiered index"). All zero
	// when the engine runs without one (tiered_enabled false).
	TieredEnabled         bool  `json:"tiered_enabled"`
	TieredHotEntries      int   `json:"tiered_hot_entries"`      // live entries resident in RAM
	TieredColdEntries     int   `json:"tiered_cold_entries"`     // live entries served from disk
	TieredSegments        int   `json:"tiered_segments"`         // immutable cold segment files
	TieredTombstones      int   `json:"tiered_tombstones"`       // cold deletes awaiting compaction
	TieredColdBytes       int64 `json:"tiered_cold_bytes"`       // on-disk size of live segments
	TieredMigrations      int64 `json:"tiered_migrations"`       // hot→cold segment freezes
	TieredCompactions     int64 `json:"tiered_compactions"`      // cold-tier rewrites
	TieredSpillProbes     int64 `json:"tiered_spill_probes"`     // cold buckets scanned by queries
	TieredPostingsScanned int64 `json:"tiered_postings_scanned"` // cold postings records scored
	TieredBytesScanned    int64 `json:"tiered_bytes_scanned"`    // cold bytes touched by queries
	TieredWatermark       int   `json:"tiered_watermark"`        // hot-tier bound (0 = manual migration)

	// Read-path cache tiers (see DESIGN.md, "Read-path caching"). Zeroes
	// when a tier is disabled.
	SummaryCacheHits       int64  `json:"summary_cache_hits"`       // probes answered from the memoized summary tier
	SummaryCacheMisses     int64  `json:"summary_cache_misses"`     // probes that ran FE+SM
	SummaryCacheEntries    int    `json:"summary_cache_entries"`    // live summary-tier entries
	ResultCacheHits        int64  `json:"result_cache_hits"`        // queries answered from the result tier
	ResultCacheMisses      int64  `json:"result_cache_misses"`      // queries that ran the search back half
	ResultCacheEntries     int    `json:"result_cache_entries"`     // live result-tier entries
	CacheSingleflightWaits int64  `json:"cache_singleflight_waits"` // lookups that piggybacked on a concurrent identical compute
	CacheEpoch             uint64 `json:"cache_epoch"`              // index-mutation epoch versioning the result tier

	// Last startup recovery (static after boot; see DESIGN.md, "Failure
	// model & recovery"). RecoveryRan is false when the daemon started
	// without a snapshot sweep (e.g. fresh synthetic corpus).
	RecoveryRan        bool     `json:"recovery_ran"`
	RecoveryFallback   bool     `json:"recovery_fallback"`         // true when an older generation had to be used
	RecoveryGeneration int      `json:"recovery_generation"`       // generation index loaded (0 = primary)
	RecoverySource     string   `json:"recovery_source"`           // path of the loaded snapshot
	RecoveryErrors     []string `json:"recovery_errors,omitempty"` // load errors from newer generations
	RecoverySwept      []string `json:"recovery_swept,omitempty"`  // abandoned temp files removed

	// SnapshotStore reports the persistent generation store's cumulative
	// dedup effect (chunks written vs reused, logical vs physical bytes,
	// live chunk count, last-GC reclaim) when the daemon has one; nil
	// otherwise. See store.StoreStats for field documentation.
	SnapshotStore *store.StoreStats `json:"snapshot_store,omitempty"`

	// Ring reports the shard's placement state (current/pending ring,
	// migration progress) when the daemon runs in shard mode; nil
	// otherwise. See RingStatusResponse.
	Ring *RingStatusResponse `json:"ring,omitempty"`
}
