// Command fastd serves a FAST index over HTTP: the /v1 JSON API of
// internal/server (query, insert, delete, snapshot, restore, stats) with
// admission control in front of the engine. Every query and insert runs
// its own engine call on its handler goroutine; nothing waits on a
// batching window.
//
// The index is bootstrapped either from a snapshot written by a previous
// run (or by fastctl snapshot):
//
//	fastd -addr :8093 -snapshot index.fast
//
// or, for demos and smoke tests, from a freshly generated synthetic
// corpus:
//
//	fastd -addr :8093 -photos 300 -scenes 10
//
// Snapshots are kept in rotated generations (index.fast, index.fast.1,
// ...): every write lands in a temp file, is fsynced, and is renamed into
// place only after the previous generation has been rotated aside, so a
// crash mid-snapshot never loses the last good index. At startup the
// daemon sweeps abandoned temp files and walks the generations
// newest-first until one passes its checksums; /v1/stats reports which
// generation loaded and why.
//
// With -cold-dir the index runs in two tiers: a hot in-RAM tier and a
// disk-resident tier of mmap'd immutable segments, with a background
// compactor migrating entries beyond -cold-watermark to disk. Queries
// answer byte-identically to an all-RAM engine; see DESIGN.md, "Tiered
// index".
//
// On SIGINT/SIGTERM the daemon drains: health checks start failing, new
// requests are refused, in-flight requests finish, and (with
// -final-snapshot) the index is persisted so the next run can resume it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/fastrepro/fast/internal/chunk"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/placement"
	"github.com/fastrepro/fast/internal/replica"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/store"
	"github.com/fastrepro/fast/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fastd: ")
	var (
		addr        = flag.String("addr", ":8093", "listen address")
		snapshot    = flag.String("snapshot", "", "bootstrap the index from this snapshot (generations tried newest-first)")
		finalSnap   = flag.String("final-snapshot", "", "write the index here during graceful shutdown (rotating generations)")
		generations = flag.Int("snapshot-generations", 2, "snapshot generations to keep (primary + fallbacks)")
		chunkAvg    = flag.Int("snapshot-chunk-avg", 0, "target chunk size in bytes for chunked snapshots, a power of two (0 = production default 64KB; lower it so small indexes still split into enough chunks to diff)")
		photos      = flag.Int("photos", 300, "synthetic bootstrap corpus size (ignored with -snapshot)")
		scenes      = flag.Int("scenes", 10, "synthetic bootstrap scene count (ignored with -snapshot)")
		seed        = flag.Int64("seed", 1, "synthetic bootstrap generator seed")
		maxInflight = flag.Int("max-inflight", 0, "admission: concurrent request limit (0 = 8*GOMAXPROCS)")
		maxQueue    = flag.Int("max-queue", 0, "admission: waiting-line limit before 429 (0 = 4*max-inflight)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		sumCache    = flag.Int("summary-cache", 4096, "probe-summary cache entries (0 disables the tier)")
		resCache    = flag.Int("result-cache", 8192, "ranked-result cache entries (0 disables the tier)")
		shardIndex  = flag.Int("shard-index", -1, "cluster shard mode: serve only the photos the placement ring assigns this shard (-1 = single node)")
		shardCount  = flag.Int("shard-count", 0, "cluster shard mode: total shard count (required with -shard-index)")
		vnodes      = flag.Int("placement-vnodes", placement.DefaultVNodes, "placement ring virtual nodes per shard (must match the router's)")
		placeSeed   = flag.Uint64("placement-seed", 0, "placement ring hash seed (must match the router's)")
		placeEpoch  = flag.Uint64("placement-epoch", 0, "placement ring epoch (live ring updates must advance past it)")
		replicas    = flag.Int("replicas", 1, "cluster shard mode: replica factor n — this shard keeps every photo whose n-owner set it belongs to")
		peers       = flag.String("peers", "", "cluster shard mode: comma-separated peer shard base URLs, indexed by shard number (enables live ring migration)")
		scratchDir  = flag.String("migrate-scratch", "", "scratch directory for chunk-diff peer fetches during ring migration (empty = stream full snapshots)")
		groupExpand = flag.Int("group-expand", 0, "engine group expansion for synthetic bootstraps (0 = engine default, negative disables; forced off in shard mode)")
		coldDir     = flag.String("cold-dir", "", "directory for the disk-resident cold index tier (empty = all-RAM engine); live ring updates do not support a cold tier")
		coldWM      = flag.Int("cold-watermark", 0, "hot-tier entry bound: the background compactor migrates entries beyond it to the cold tier (0 = manual migration only)")
		coldBatch   = flag.Int("cold-batch", 0, "entries per cold-tier migration segment (0 = default 256)")
	)
	flag.Parse()

	shardMode := *shardIndex >= 0
	if shardMode && (*shardCount < 1 || *shardIndex >= *shardCount) {
		log.Fatalf("-shard-index %d needs -shard-count > shard-index", *shardIndex)
	}
	// Group expansion re-queries the index with stored summaries of the top
	// hits. Across shards that walk would cross shard boundaries — each
	// shard only holds its own photos — so routed answers could never be
	// byte-identical to a single node. Shard mode therefore forces it off.
	if shardMode && *groupExpand >= 0 {
		if *groupExpand > 0 {
			log.Printf("shard mode: overriding -group-expand %d to disabled (expansion crosses shard boundaries)", *groupExpand)
		}
		*groupExpand = -1
	}

	eng, recovery, err := bootstrap(*snapshot, *generations, *photos, *scenes, *seed, *groupExpand)
	if err != nil {
		log.Fatal(err)
	}

	var shardCfg *server.ShardConfig
	if shardMode {
		if *replicas < 1 || *replicas > *shardCount {
			log.Fatalf("-replicas %d must be in [1, shard-count]", *replicas)
		}
		ringCfg := placement.Config{Shards: *shardCount, VNodes: *vnodes, Seed: *placeSeed, Epoch: *placeEpoch}
		ring, err := placement.New(ringCfg)
		if err != nil {
			log.Fatal(err)
		}
		if eng.GroupExpand() > 0 {
			log.Printf("warning: snapshot-loaded engine has group expansion enabled; sharded answers will not be byte-identical to a single node")
		}
		// Subset the bootstrapped corpus down to this shard's ownership.
		// Dropping non-owned photos from a common corpus (instead of
		// building an independent index per shard) keeps the trained PCA
		// basis — and therefore every score — identical across shards.
		// Ownership is Owners(id, replicas) membership, NOT primacy: with
		// -replicas n > 1 this shard also keeps the photos it backs up, the
		// copies replica reads and fail-over answers are served from.
		kept, dropped, err := replica.Subset(eng, ring, *replicas, *shardIndex)
		if err != nil {
			log.Fatalf("shard subset: %v", err)
		}
		log.Printf("shard %d/%d rf=%d: owns %d photos (dropped %d non-owned, ring fingerprint %016x)",
			*shardIndex, *shardCount, *replicas, kept, dropped, ring.Fingerprint())

		shardCfg = &server.ShardConfig{Index: *shardIndex, Ring: ringCfg, Replicas: *replicas}
		if *peers != "" {
			urls := strings.Split(*peers, ",")
			shardCfg.Fetcher = replica.NewFetcher(urls, *scratchDir)
		}
	}
	// Cache tiers are serving-side configuration, not index contents, so they
	// are applied here rather than persisted in snapshots; /v1/restore carries
	// them onto replacement engines.
	eng.ConfigureCache(*sumCache, *resCache)

	// The cold tier is likewise serving-side state: hot snapshots never
	// contain it (its segments are already durable in -cold-dir), and
	// /v1/restore adopts the open store onto replacement engines. Enabling
	// it after bootstrap reconciles ids the cold catalog already owns out of
	// the snapshot-loaded hot tier, so a crash between migration and
	// snapshot never double-serves an entry.
	if *coldDir != "" {
		swept, err := eng.EnableColdTier(*coldDir, *coldWM, *coldBatch)
		if err != nil {
			log.Fatalf("cold tier: %v", err)
		}
		for _, p := range swept {
			log.Printf("cold tier: removed abandoned temp file %s", p)
		}
		cs := eng.ColdStats()
		log.Printf("cold tier %s: %d entries in %d segments (%d bytes on disk, %d tombstones), watermark %d",
			*coldDir, cs.Entries, cs.Segments, cs.DiskBytes, cs.Tombstones, *coldWM)
	}

	// The persistent generation store backs both POST /v1/snapshot/save and
	// the shutdown snapshot, so a hot save and the final one dedup against
	// each other's chunks.
	var snaps *store.Generations
	if *finalSnap != "" {
		var cdc chunk.Config
		if *chunkAvg > 0 {
			// Scale the whole geometry around the requested average (min at
			// avg/8, max at 8×avg — the spread the benchmark suite uses).
			cdc = chunk.Config{MinSize: *chunkAvg / 8, AvgSize: *chunkAvg, MaxSize: *chunkAvg * 8}
		}
		snaps = &store.Generations{Path: *finalSnap, Keep: *generations, Chunked: true, CDC: cdc}
	}

	srv, err := server.New(server.Config{
		Engine:      eng,
		MaxInflight: *maxInflight,
		MaxQueue:    *maxQueue,
		Recovery:    recovery,
		Snapshots:   snaps,
		Shard:       shardCfg,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}()
	log.Printf("serving %d photos on %s (caches %d/%d)",
		eng.Len(), ln.Addr(), *sumCache, *resCache)

	// Wait for a shutdown signal, then drain: refuse new work, let
	// http.Server.Shutdown wait out the in-flight handlers, and only then
	// cut the final snapshot. A handler acknowledges only after its engine
	// call returned, so the snapshot contains every acknowledged insert.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	log.Printf("%v: draining...", got)

	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// Drain timeout: force-close the connections. Anything not yet
		// acknowledged is by definition not owed to a client.
		log.Printf("shutdown: %v (forcing close)", err)
		httpSrv.Close()
	}

	if snaps != nil {
		res, err := snaps.WriteSnapshot(srv.Engine())
		if err != nil {
			log.Fatalf("final snapshot: %v", err)
		}
		if res.Chunked {
			log.Printf("final snapshot written to %s: %d logical bytes in %d physical (%.1fx dedup; %d/%d chunks reused; GC reclaimed %d chunks / %d bytes)",
				*finalSnap, res.LogicalBytes, res.PhysicalBytes, res.DedupRatio(),
				res.ChunksReused, res.Chunks, res.GCChunks, res.GCBytes)
		} else {
			log.Printf("final snapshot written to %s (%d bytes)", *finalSnap, res.LogicalBytes)
		}
	}
	// Stop the background compactor and unmap the cold segments; the cold
	// tier's own state is already durable (every migration publishes its
	// catalog before the view), so this is teardown, not persistence.
	if *coldDir != "" {
		if err := srv.Engine().CloseColdTier(); err != nil {
			log.Printf("cold tier close: %v", err)
		}
	}
	log.Println("bye")
}

// bootstrap loads the engine from the snapshot generations (sweeping
// aborted temp files and falling back to older generations when the
// primary is torn or corrupt), or builds one over a synthetic corpus when
// no snapshot is given. The returned RecoveryInfo is nil for synthetic
// bootstraps.
func bootstrap(snapshot string, generations, photos, scenes int, seed int64, groupExpand int) (*core.Engine, *store.RecoveryInfo, error) {
	if snapshot != "" {
		g := &store.Generations{Path: snapshot, Keep: generations}
		var eng *core.Engine
		t0 := time.Now()
		info, err := g.Recover(func(path string, r io.Reader) error {
			e, err := core.ReadEngine(r)
			if err != nil {
				return err
			}
			eng = e
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("recovering snapshot %s: %w", snapshot, err)
		}
		for _, p := range info.Swept {
			log.Printf("recovery: removed abandoned temp file %s", p)
		}
		if info.Fallback {
			log.Printf("recovery: fell back to generation %d (%s): %v",
				info.Generation, info.Loaded, info.Errors)
		}
		log.Printf("loaded %d photos from %s in %v", eng.Len(), info.Loaded, time.Since(t0).Round(time.Millisecond))
		return eng, &info, nil
	}

	ds, err := workload.Generate(workload.Spec{
		Name:        "fastd",
		Scenes:      scenes,
		Photos:      photos,
		Subjects:    4,
		SubjectRate: 0.2,
		Resolution:  64,
		Seed:        seed,
		SceneBase:   6000,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("generating bootstrap corpus: %w", err)
	}
	eng := core.NewEngine(core.Config{GroupExpand: groupExpand})
	t0 := time.Now()
	if _, err := eng.Build(ds.Photos); err != nil {
		return nil, nil, fmt.Errorf("building bootstrap index: %w", err)
	}
	log.Printf("built synthetic index (%d photos, %d scenes) in %v",
		photos, scenes, time.Since(t0).Round(time.Millisecond))
	return eng, nil, nil
}
