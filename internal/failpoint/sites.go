package failpoint

// The compiled-in failpoint site inventory. Each constant names one place
// production code consults the framework; the prefix is the owning
// package. DESIGN.md ("Failure model & recovery") documents what failure
// each site simulates and which tests drive it.
const (
	// Snapshot serialization (internal/core). The header site guards the
	// container header write; the section site is evaluated before each
	// section payload; the read site simulates an I/O error at the start
	// of deserialization (distinct from corruption, which the per-section
	// CRCs detect organically).
	CoreSnapshotWriteHeader  = "core/snapshot-write-header"
	CoreSnapshotWriteSection = "core/snapshot-write-section"
	CoreSnapshotRead         = "core/snapshot-read"

	// On-disk snapshot generations (internal/store). Sites bracket every
	// step of the crash-safe write protocol: temp-file creation, the data
	// write itself (arm with a PartialWrite policy for torn writes), the
	// temp fsync, the generation rotation renames, the final rename into
	// place, and the directory sync. A Panic policy at rotate/rename
	// simulates dying inside the vulnerable window.
	StoreSnapshotCreate  = "store/snapshot-create"
	StoreSnapshotWrite   = "store/snapshot-write"
	StoreSnapshotSync    = "store/snapshot-sync"
	StoreSnapshotRotate  = "store/snapshot-rotate"
	StoreSnapshotRename  = "store/snapshot-rename"
	StoreSnapshotDirSync = "store/snapshot-dirsync"

	// Content-addressed chunk store (internal/store, chunked generations).
	// chunk-write fires before each chunk lands in the store, chunk-sync
	// before the chunk file's fsync, manifest-write before the manifest
	// temp file begins its publish sequence (which then runs through the
	// snapshot-* sites above), and chunk-gc at the top of the
	// post-publish / post-recover garbage-collection pass. A Panic policy
	// at chunk-gc simulates dying mid-GC; an Error policy there skips the
	// pass (GC is advisory — the snapshot itself is already durable).
	StoreChunkWrite    = "store/chunk-write"
	StoreChunkSync     = "store/chunk-sync"
	StoreManifestWrite = "store/manifest-write"
	StoreChunkGC       = "store/chunk-gc"

	// Replica catch-up over the chunk store (internal/store). chunk-fetch
	// fires before each missing chunk is consumed from a delta stream on
	// the replica side: an Error policy aborts the transfer mid-stream
	// (the chunks already landed stay durable, so the resumed catch-up is
	// diff-only), a Delay policy simulates a slow primary.
	StoreChunkFetch = "store/chunk-fetch"

	// Query router (internal/router). fanout fires once per shard before
	// the sub-query is issued — Error marks that shard failed (driving the
	// partial-result path deterministically), Delay simulates a slow shard
	// inside the per-shard timeout. merge fires before per-shard answers
	// are merged; Error fails the whole query after fan-out.
	RouterFanout = "router/fanout"
	RouterMerge  = "router/merge"

	// Serving layer (internal/server). dispatch-query and dispatch-insert
	// fire in the query and insert handlers after admission, just before
	// Engine.Query / Engine.Insert: Delay is a slow engine holding its
	// admission slot, Error answers 422, Panic is recovered by net/http
	// with the slot released. The inject sites fire in the request gate and
	// synthesize admission-control backpressure (429 with Retry-After,
	// 503) without needing real overload — the client retry tests drive
	// bursts through them.
	ServerDispatchQuery  = "server/dispatch-query"
	ServerDispatchInsert = "server/dispatch-insert"
	ServerInject429      = "server/inject-429"
	ServerInject503      = "server/inject-503"

	// Client transport (internal/client): fires before each HTTP attempt;
	// Error simulates a transport failure (connection reset), Delay a slow
	// network.
	ClientTransport = "client/transport"

	// Cuckoo storage (internal/cuckoo). insert-full forces a kick-chain
	// exhaustion (the paper's rare rehash event) so the stash can be
	// driven at will.
	CuckooInsertFull = "cuckoo/insert-full"

	// Disk-resident cold tier (internal/tiered, internal/core). The sites
	// bracket the three steps of the hot→cold migration protocol, in
	// order: segment-write fires inside the segment temp-file write (arm
	// with PartialWrite for a torn segment), segment-publish fires after
	// the segment file is durable but before the catalog generation that
	// references it is published (a crash here leaves an orphan segment
	// the next open sweeps), and migrate fires after the catalog publish
	// but before the migrated entries are removed from the hot tier (a
	// crash here leaves ids resident in both tiers, which recovery
	// reconciles and queries dedup in the meantime).
	TieredSegmentWrite   = "tiered/segment-write"
	TieredSegmentPublish = "tiered/segment-publish"
	TieredMigrate        = "tiered/migrate"

	// Replica-aware routing (internal/router). replica-pick fires while a
	// read policy is choosing its target subset — Error makes the router
	// fall back to the full all-shards fan-out (never a wrong answer, only
	// lost read scaling). hedge fires before a hedged query launches its
	// reserve shards — Error suppresses the hedge so the slow leg must be
	// repaired by the failure fallback instead.
	RouterReplicaPick = "router/replica-pick"
	RouterHedge       = "router/hedge"

	// Live ring reconfiguration (internal/server shard side). ring-install
	// fires inside POST /v1/ring prepare before the pending ring is
	// adopted (Error rejects the install, leaving the current epoch fully
	// intact); migrate fires per peer inside the background acquire loop
	// (Error fails the migration, parking the shard in state "failed"
	// where a re-prepare restarts it — the old epoch keeps serving
	// throughout, and commit is refused until a later attempt succeeds).
	ShardRingInstall = "shard/ring-install"
	ShardMigrate     = "shard/migrate"
)
