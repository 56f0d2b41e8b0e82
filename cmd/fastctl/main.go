// Command fastctl builds a FAST index over a synthetic corpus and runs
// similarity queries against it, printing per-query results and summary
// statistics. It is the interactive face of the library:
//
//	fastctl -photos 400 -scenes 10 -queries 20
//	fastctl -photos 1000 -scheme PCA-SIFT -queries 5 -topk 20
//
// It also administers a running fastd daemon:
//
//	fastctl query    -server http://127.0.0.1:8093 -queries 5
//	fastctl snapshot -server http://127.0.0.1:8093 -out index.fast
//	fastctl restore  -server http://127.0.0.1:8093 -in index.fast
//	fastctl insert   -server http://127.0.0.1:8093 -count 5
//
// and checks a cluster deployment (fastrouter + sharded fastd):
//
//	fastctl clustercheck -router http://127.0.0.1:8210 -oracle http://127.0.0.1:8200
//	fastctl catchup      -server http://127.0.0.1:8093 -out replica.fast
//
// clustercheck verifies routed answers byte-identical to a single-node
// oracle (or, with -expect-partial, that a degraded cluster flags its
// answers); catchup synchronizes a local generation store with the
// daemon's newest snapshot over the chunk-diff protocol, transferring only
// missing chunks; insert pushes freshly generated photos into a running
// daemon (churn for catch-up demos and smoke tests).
//
// query sends synthetic probes over the wire (regenerate the daemon's
// corpus parameters with -photos/-scenes/-seed to probe for real matches);
// snapshot streams a hot snapshot of the daemon's index to a local file
// (written via temp file + rename) and verifies it reloads to the photo
// count the daemon reports — with -chunked it lands in a content-addressed
// generation store instead, deduplicating against prior snapshots at the
// same path and printing the dedup ratio; restore uploads a snapshot file
// (monolithic or chunk manifest), replacing the daemon's index in place,
// and verifies the daemon serves the new count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"github.com/fastrepro/fast/internal/baseline"
	"github.com/fastrepro/fast/internal/client"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/metrics"
	"github.com/fastrepro/fast/internal/store"
	"github.com/fastrepro/fast/internal/workload"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "query":
			runQuery(os.Args[2:])
			return
		case "snapshot":
			runSnapshot(os.Args[2:])
			return
		case "restore":
			runRestore(os.Args[2:])
			return
		case "clustercheck":
			runClusterCheck(os.Args[2:])
			return
		case "catchup":
			runCatchUp(os.Args[2:])
			return
		case "ring-update":
			runRingUpdate(os.Args[2:])
			return
		case "insert":
			runInsert(os.Args[2:])
			return
		}
	}
	var (
		photos  = flag.Int("photos", 300, "corpus size")
		scenes  = flag.Int("scenes", 10, "number of landmark scenes")
		queries = flag.Int("queries", 10, "number of queries to run")
		topK    = flag.Int("topk", 25, "results per query")
		seed    = flag.Int64("seed", 1, "generator seed")
		scheme  = flag.String("scheme", "FAST", "pipeline: FAST, SIFT, PCA-SIFT or RNPE")
		verbose = flag.Bool("v", false, "print per-result details")
	)
	flag.Parse()

	ds, err := workload.Generate(workload.Spec{
		Name:        "fastctl",
		Scenes:      *scenes,
		Photos:      *photos,
		Subjects:    4,
		SubjectRate: 0.2,
		Resolution:  64,
		Seed:        *seed,
		SceneBase:   6000,
	})
	if err != nil {
		log.Fatalf("fastctl: generating corpus: %v", err)
	}
	fmt.Printf("corpus: %d photos / %d scenes\n", len(ds.Photos), *scenes)

	var p core.Pipeline
	switch *scheme {
	case "FAST":
		p = core.NewEngine(core.Config{})
	case "SIFT":
		p = baseline.NewSIFT()
	case "PCA-SIFT":
		p = baseline.NewPCASIFT()
	case "RNPE":
		p = baseline.NewRNPE()
	default:
		fmt.Fprintf(os.Stderr, "fastctl: unknown scheme %q\n", *scheme)
		os.Exit(2)
	}

	t0 := time.Now()
	st, err := p.Build(ds.Photos)
	if err != nil {
		log.Fatalf("fastctl: building %s index: %v", p.Name(), err)
	}
	fmt.Printf("%s index built in %v (%d descriptors, %.1f KB)\n\n",
		p.Name(), time.Since(t0).Round(time.Millisecond), st.Descriptors,
		float64(p.IndexBytes())/1024)

	qs, err := ds.Queries(*queries, *seed+100)
	if err != nil {
		log.Fatalf("fastctl: queries: %v", err)
	}
	lat := metrics.NewLatency()
	var acc metrics.Accuracy
	for qi, q := range qs {
		probe := core.Probe{Img: q.Probe}
		if *scheme == "RNPE" {
			for _, ph := range ds.Photos {
				if ph.Scene == q.Scene {
					loc := ph.Loc
					probe.Loc = &loc
					break
				}
			}
		}
		t1 := time.Now()
		res, err := p.Search(probe, *topK)
		if err != nil {
			log.Fatalf("fastctl: query %d: %v", qi, err)
		}
		lat.Record(time.Since(t1))
		ids := make([]uint64, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		ret := metrics.ScoreRetrieval(ids, q.Relevant)
		acc.Add(ret.Recall())
		fmt.Printf("query %2d (scene %d): %2d results, recall %.2f, precision %.2f\n",
			qi+1, q.Scene, len(res), ret.Recall(), ret.Precision())
		if *verbose {
			for i, r := range res {
				mark := " "
				if q.Relevant[r.ID] {
					mark = "*"
				}
				fmt.Printf("    %2d. photo %-12d score %.3f %s\n", i+1, r.ID, r.Score, mark)
			}
		}
	}
	s := lat.Summarize()
	fmt.Printf("\n%d queries: mean %v, median %v, p99 %v; mean recall %.2f\n",
		s.Count, s.Mean.Round(time.Microsecond), s.Median.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), acc.Mean())
}

// runQuery implements `fastctl query`: send synthetic probes to a running
// daemon and report per-query hit counts and latency. With corpus flags
// matching the daemon's bootstrap (-photos/-scenes/-seed), the probes are
// near-duplicates of indexed photos and should return real matches.
func runQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var (
		serverURL = fs.String("server", "http://127.0.0.1:8093", "fastd base URL")
		queries   = fs.Int("queries", 5, "number of probes to send")
		topK      = fs.Int("topk", 25, "results per query")
		photos    = fs.Int("photos", 300, "probe-generator corpus size (match the daemon's)")
		scenes    = fs.Int("scenes", 10, "probe-generator scene count (match the daemon's)")
		seed      = fs.Int64("seed", 1, "probe-generator seed (match the daemon's)")
		timeout   = fs.Duration("timeout", time.Minute, "request timeout")
	)
	fs.Parse(args)
	ds, err := workload.Generate(workload.Spec{
		Name:        "fastd",
		Scenes:      *scenes,
		Photos:      *photos,
		Subjects:    4,
		SubjectRate: 0.2,
		Resolution:  64,
		Seed:        *seed,
		SceneBase:   6000,
	})
	if err != nil {
		log.Fatalf("fastctl query: generating probes: %v", err)
	}
	qs, err := ds.Queries(*queries, *seed+100)
	if err != nil {
		log.Fatalf("fastctl query: %v", err)
	}

	c := adminClient(*serverURL, *timeout)
	ctx := context.Background()
	lat := metrics.NewLatency()
	hits := 0
	for qi, q := range qs {
		t0 := time.Now()
		res, err := c.Query(ctx, q.Probe, *topK)
		if err != nil {
			log.Fatalf("fastctl query: query %d: %v", qi+1, err)
		}
		lat.Record(time.Since(t0))
		hits += len(res)
		fmt.Printf("query %2d (scene %d): %2d results", qi+1, q.Scene, len(res))
		if len(res) > 0 {
			fmt.Printf(", best photo %d score %.3f", res[0].ID, res[0].Score)
		}
		fmt.Println()
	}
	s := lat.Summarize()
	fmt.Printf("\n%d queries over the wire: %d total results; mean %v, p99 %v\n",
		s.Count, hits, s.Mean.Round(time.Microsecond), s.P99.Round(time.Microsecond))
	if st, err := c.Stats(ctx); err == nil {
		fmt.Printf("server cache: summary %d hits / %d misses, results %d hits / %d misses, %d singleflight waits (epoch %d)\n",
			st.SummaryCacheHits, st.SummaryCacheMisses, st.ResultCacheHits, st.ResultCacheMisses,
			st.CacheSingleflightWaits, st.CacheEpoch)
		if st.TieredEnabled {
			fmt.Printf("server cold tier: %d hot / %d cold entries, %d segments (%d bytes on disk, %d tombstones); queries probed %d cold buckets, scanned %d postings / %d bytes; %d migrations, %d compactions\n",
				st.TieredHotEntries, st.TieredColdEntries, st.TieredSegments, st.TieredColdBytes,
				st.TieredTombstones, st.TieredSpillProbes, st.TieredPostingsScanned,
				st.TieredBytesScanned, st.TieredMigrations, st.TieredCompactions)
		}
	}
	if hits == 0 {
		log.Fatal("fastctl query: no query returned any results")
	}
}

// adminClient builds the client shared by the daemon subcommands.
func adminClient(serverURL string, timeout time.Duration) *client.Client {
	return client.New(serverURL, client.WithTimeout(timeout))
}

// snapshotStream adapts the daemon's streaming snapshot endpoint to the
// io.WriterTo the generation store consumes, so the downloaded bytes are
// chunked and deduplicated as they arrive instead of being spooled to a
// temp file first.
type snapshotStream struct {
	c   *client.Client
	ctx context.Context
}

func (s snapshotStream) WriteTo(w io.Writer) (int64, error) {
	return s.c.Snapshot(s.ctx, w)
}

// runSnapshot implements `fastctl snapshot`: stream the daemon's index to a
// local file and verify the bytes reload. With -chunked the stream lands in
// a local content-addressed generation store instead of a monolithic file:
// repeated snapshots of a slowly changing index then cost only the changed
// chunks, and the command reports the dedup effect of this write.
func runSnapshot(args []string) {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	var (
		serverURL = fs.String("server", "http://127.0.0.1:8093", "fastd base URL")
		out       = fs.String("out", "index.fast", "snapshot destination file")
		chunked   = fs.Bool("chunked", false, "store as content-addressed chunk manifest (dedup against prior generations at -out)")
		keep      = fs.Int("keep", 2, "generations to keep in chunked mode")
		timeout   = fs.Duration("timeout", 5*time.Minute, "request timeout")
	)
	fs.Parse(args)
	c := adminClient(*serverURL, *timeout)
	ctx := context.Background()

	st, err := c.Stats(ctx)
	if err != nil {
		log.Fatalf("fastctl snapshot: %s is not answering: %v", *serverURL, err)
	}
	if *chunked {
		g := &store.Generations{Path: *out, Keep: *keep, Chunked: true}
		t0 := time.Now()
		res, err := g.WriteSnapshot(snapshotStream{c: c, ctx: ctx})
		if err != nil {
			log.Fatalf("fastctl snapshot: %v", err)
		}
		// Verify the manifest reassembles to the photo count the daemon
		// reported.
		r, err := store.OpenPayload(*out)
		if err != nil {
			log.Fatalf("fastctl snapshot: %v", err)
		}
		eng, err := core.ReadEngine(r)
		r.Close()
		if err != nil {
			log.Fatalf("fastctl snapshot: stored snapshot does not reload: %v", err)
		}
		if eng.Len() != st.Photos {
			log.Fatalf("fastctl snapshot: snapshot reloads to %d photos, daemon reported %d", eng.Len(), st.Photos)
		}
		fmt.Printf("snapshot: %d photos, %d logical bytes in %d physical (%.1fx dedup; %d/%d chunks reused; GC reclaimed %d chunks) -> %s (verified reload) in %v\n",
			eng.Len(), res.LogicalBytes, res.PhysicalBytes, res.DedupRatio(),
			res.ChunksReused, res.Chunks, res.GCChunks, *out, time.Since(t0).Round(time.Millisecond))
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(*out), "fastctl-snap-*")
	if err != nil {
		log.Fatalf("fastctl snapshot: %v", err)
	}
	defer os.Remove(tmp.Name())
	t0 := time.Now()
	n, err := c.Snapshot(ctx, tmp)
	if err != nil {
		tmp.Close()
		log.Fatalf("fastctl snapshot: %v", err)
	}
	if err := tmp.Close(); err != nil {
		log.Fatalf("fastctl snapshot: %v", err)
	}

	// Verify the snapshot parses and carries the photo count the daemon
	// reported before renaming it over the destination.
	f, err := os.Open(tmp.Name())
	if err != nil {
		log.Fatalf("fastctl snapshot: %v", err)
	}
	eng, err := core.ReadEngine(f)
	f.Close()
	if err != nil {
		log.Fatalf("fastctl snapshot: downloaded snapshot does not reload: %v", err)
	}
	if eng.Len() != st.Photos {
		log.Fatalf("fastctl snapshot: snapshot reloads to %d photos, daemon reported %d", eng.Len(), st.Photos)
	}
	if err := os.Rename(tmp.Name(), *out); err != nil {
		log.Fatalf("fastctl snapshot: %v", err)
	}
	fmt.Printf("snapshot: %d photos, %d bytes -> %s (verified reload) in %v\n",
		eng.Len(), n, *out, time.Since(t0).Round(time.Millisecond))
}

// runRestore implements `fastctl restore`: upload a snapshot file into the
// daemon and verify it took effect.
func runRestore(args []string) {
	fs := flag.NewFlagSet("restore", flag.ExitOnError)
	var (
		serverURL = fs.String("server", "http://127.0.0.1:8093", "fastd base URL")
		in        = fs.String("in", "index.fast", "snapshot file to upload")
		timeout   = fs.Duration("timeout", 5*time.Minute, "request timeout")
	)
	fs.Parse(args)
	c := adminClient(*serverURL, *timeout)
	ctx := context.Background()

	// Parse locally first: a corrupt file fails here with a snapshot error
	// instead of a server round trip, and the parse yields the photo count
	// the daemon must serve afterwards. OpenPayload resolves chunk-manifest
	// generations transparently, so a -chunked snapshot restores with the
	// same command as a monolithic one — the daemon always receives plain
	// snapshot bytes.
	f, err := store.OpenPayload(*in)
	if err != nil {
		log.Fatalf("fastctl restore: %v", err)
	}
	eng, err := core.ReadEngine(f)
	f.Close()
	if err != nil {
		log.Fatalf("fastctl restore: %s does not parse: %v", *in, err)
	}
	want := eng.Len()

	f, err = store.OpenPayload(*in)
	if err != nil {
		log.Fatalf("fastctl restore: %v", err)
	}
	defer f.Close()
	t0 := time.Now()
	if err := c.Restore(ctx, f); err != nil {
		log.Fatalf("fastctl restore: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		log.Fatalf("fastctl restore: daemon stopped answering after restore: %v", err)
	}
	if st.Photos != want {
		log.Fatalf("fastctl restore: daemon serves %d photos, snapshot holds %d", st.Photos, want)
	}
	fmt.Printf("restore: %s -> %s, daemon now serves %d photos (verified) in %v\n",
		*in, *serverURL, st.Photos, time.Since(t0).Round(time.Millisecond))
}
