package replica

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/client"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/placement"
	"github.com/fastrepro/fast/internal/router"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/workload"
)

func testCorpus(t *testing.T) *workload.Dataset {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		Name: "replica", Scenes: 5, Photos: 100, Subjects: 3,
		SubjectRate: 0.25, Resolution: 32, Seed: 23, SceneBase: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func buildUnion(t *testing.T, ds *workload.Dataset) *core.Engine {
	t.Helper()
	eng := core.NewEngine(core.Config{GroupExpand: -1})
	if _, err := eng.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	return eng
}

func cloneEngine(t *testing.T, union []byte) *core.Engine {
	t.Helper()
	eng, err := core.ReadEngine(bytes.NewReader(union))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSubsetKeepsReplicaCopies is the regression test for the fastd
// bootstrap bug: subsetting a shard's corpus by Owner (primacy) alone
// silently deletes the backup copies replica reads depend on. Subset must
// keep exactly the Owners(id, rf) membership — every photo on rf shards,
// and the union of any S-1 shards still complete.
func TestSubsetKeepsReplicaCopies(t *testing.T) {
	ds := testCorpus(t)
	union := buildUnion(t, ds)
	var buf bytes.Buffer
	if _, err := union.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	const shards, rf = 3, 2
	ring, err := placement.New(placement.Config{Shards: shards, VNodes: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	holders := make(map[uint64][]int)
	for s := 0; s < shards; s++ {
		eng := cloneEngine(t, buf.Bytes())
		kept, dropped, err := Subset(eng, ring, rf, s)
		if err != nil {
			t.Fatal(err)
		}
		if kept+dropped != len(ds.Photos) || kept != eng.Len() {
			t.Fatalf("shard %d accounting: kept %d dropped %d len %d", s, kept, dropped, eng.Len())
		}
		for _, id := range eng.IDs() {
			holders[id] = append(holders[id], s)
		}
		// The pre-fix behavior kept only Owner(id) == s. With rf=2 a shard
		// must also hold photos it backs up; assert it really does.
		backups := 0
		for _, id := range eng.IDs() {
			if ring.Owner(id) != s {
				backups++
			}
		}
		if backups == 0 {
			t.Fatalf("shard %d holds no backup copies — Subset degenerated to Owner-only", s)
		}
	}
	for _, id := range union.IDs() {
		hs := holders[id]
		if len(hs) != rf {
			t.Fatalf("photo %d held by %v, want exactly %d shards", id, hs, rf)
		}
		want := make(map[int]bool, rf)
		for _, o := range ring.Owners(id, rf) {
			want[int(o)] = true
		}
		for _, s := range hs {
			if !want[s] {
				t.Fatalf("photo %d held by %v, ring owners %v", id, hs, ring.Owners(id, rf))
			}
		}
	}
}

// replicaCluster is the full-stack fixture: rf-2 shard servers over real
// HTTP with the client-backed peer fetcher, a router served over HTTP,
// and the union oracle.
type replicaCluster struct {
	ds           *workload.Dataset
	union        *core.Engine
	ringCfg      placement.Config
	shardTS      []*httptest.Server
	shardClients []*client.Client
	rt           *router.Router
	routerTS     *httptest.Server
	routerClient *client.Client
}

const clusterRF = 2

func newReplicaCluster(t *testing.T, shards int, policy router.ReadPolicy) *replicaCluster {
	t.Helper()
	ds := testCorpus(t)
	union := buildUnion(t, ds)
	var buf bytes.Buffer
	if _, err := union.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c := &replicaCluster{
		ds:      ds,
		union:   union,
		ringCfg: placement.Config{Shards: shards, VNodes: 32, Seed: 13, Epoch: 1},
	}
	ring, err := placement.New(c.ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	c.shardTS = make([]*httptest.Server, shards)
	c.shardClients = make([]*client.Client, shards)
	backends := make([]router.Backend, shards)
	fetcher := &Fetcher{Resolve: func(shard int) (*client.Client, error) {
		if shard < 0 || shard >= len(c.shardClients) || c.shardClients[shard] == nil {
			return nil, fmt.Errorf("no peer client for shard %d", shard)
		}
		return c.shardClients[shard], nil
	}}
	for s := 0; s < shards; s++ {
		eng := cloneEngine(t, buf.Bytes())
		if _, _, err := Subset(eng, ring, clusterRF, s); err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Engine: eng,
			Shard:  &server.ShardConfig{Index: s, Ring: c.ringCfg, Replicas: clusterRF, Fetcher: fetcher},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		c.shardTS[s] = ts
		c.shardClients[s] = client.New(ts.URL, client.WithHTTPClient(ts.Client()))
		backends[s] = router.NewClientBackend(client.New(ts.URL, client.WithHTTPClient(ts.Client())))
	}
	c.rt, err = router.New(router.Config{
		Shards: backends, Ring: ring, Replicas: clusterRF, Policy: policy, ShardTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.rt.Close)
	c.routerTS = httptest.NewServer(c.rt.Handler())
	t.Cleanup(c.routerTS.Close)
	c.routerClient = client.New(c.routerTS.URL, client.WithHTTPClient(c.routerTS.Client()))
	return c
}

// identity routes probes through the cluster and reports the first answer
// that is not full, fresh and byte-identical to the union oracle's.
func (c *replicaCluster) identity(n int) error {
	qs, err := c.ds.Queries(n, 910)
	if err != nil {
		return err
	}
	const topK = 25
	ctx := context.Background()
	for qi, q := range qs {
		want, err := c.union.Query(q.Probe, topK)
		if err != nil {
			return err
		}
		got, resp, err := c.routerClient.QueryFull(ctx, q.Probe, topK)
		if err != nil {
			return fmt.Errorf("query %d: %w", qi, err)
		}
		if resp.Partial || resp.Stale {
			return fmt.Errorf("query %d flagged partial=%v stale=%v", qi, resp.Partial, resp.Stale)
		}
		if len(got) != len(want) {
			return fmt.Errorf("query %d: %d results, oracle %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("query %d rank %d: got {%d %.17g}, oracle {%d %.17g}",
					qi, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
	return nil
}

func (c *replicaCluster) checkIdentity(t *testing.T, label string, n int) {
	t.Helper()
	if err := c.identity(n); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func (c *replicaCluster) nextRing(epoch, seed uint64) placement.Config {
	next := c.ringCfg
	next.Seed = seed
	next.Epoch = epoch
	return next
}

// TestRingUpdateEndToEnd drives a live placement change over the real
// wire: new seed, same shard count, rf preserved. The update must
// complete with photos actually migrating (acquired and shed non-zero),
// leave every shard steady on the new epoch with the copy count intact,
// and preserve byte-identity before, under query load for the whole of the
// update, and after.
func TestRingUpdateEndToEnd(t *testing.T) {
	c := newReplicaCluster(t, 3, router.ReadRoundRobin)
	c.checkIdentity(t, "before update", 4)

	// The router double-reads during the transition and every shard
	// acquires before any shard sheds, so no probe racing the update may
	// see a partial, stale or different answer.
	stopLoad := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stopLoad:
				loadErr <- nil
				return
			default:
			}
			if err := c.identity(4); err != nil {
				loadErr <- err
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := RingUpdate(ctx, RingUpdateOptions{
		Router:       c.routerClient,
		Shards:       c.shardClients,
		Ring:         c.nextRing(2, 777),
		Replicas:     clusterRF,
		PollInterval: 10 * time.Millisecond,
	})
	close(stopLoad)
	if lerr := <-loadErr; lerr != nil {
		t.Fatalf("query load during update: %v", lerr)
	}
	if err != nil {
		t.Fatalf("RingUpdate: %v", err)
	}
	moved := 0
	for i := range rep.Acquired {
		moved += rep.Acquired[i] + rep.Shed[i]
	}
	if moved == 0 {
		t.Fatal("ring update moved nothing; the new seed should reshuffle placement")
	}
	copies := 0
	for s, sc := range c.shardClients {
		st, err := sc.RingStatus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "steady" || st.Current.Epoch != 2 || st.Pending != nil {
			t.Fatalf("shard %d after update: state %q epoch %d pending %v", s, st.State, st.Current.Epoch, st.Pending)
		}
		stats, err := sc.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		copies += stats.Photos
		if stats.Ring == nil || stats.Ring.Current.Epoch != 2 {
			t.Fatalf("shard %d /v1/stats does not expose the new ring", s)
		}
	}
	if want := clusterRF * c.union.Len(); copies != want {
		t.Fatalf("after update the cluster holds %d copies, want %d", copies, want)
	}
	rst, err := c.routerClient.RingStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rst.State != "steady" || rst.Current.Epoch != 2 {
		t.Fatalf("router after update: state %q epoch %d", rst.State, rst.Current.Epoch)
	}
	c.checkIdentity(t, "after update", 4)

	// Stale epochs are refused; a second identical update is rejected
	// because the epoch does not advance.
	if _, err := RingUpdate(ctx, RingUpdateOptions{
		Router: c.routerClient, Shards: c.shardClients,
		Ring: c.nextRing(2, 999), Replicas: clusterRF,
	}); err == nil {
		t.Fatal("update with a non-advancing epoch succeeded")
	}
}

// TestRingUpdateCrashMatrix kills the update at each injected site and
// proves the cluster stays consistent and recoverable: the old epoch keeps
// serving byte-identical answers, and re-running the same update resumes
// and completes. shard/ring-install rejects the install outright;
// shard/migrate fails the background acquire, parking the shard in
// "failed" until the re-prepare restarts it.
func TestRingUpdateCrashMatrix(t *testing.T) {
	for _, site := range []string{failpoint.ShardRingInstall, failpoint.ShardMigrate} {
		t.Run(strings.ReplaceAll(site, "/", "_"), func(t *testing.T) {
			t.Cleanup(failpoint.Reset)
			failpoint.Reset()
			c := newReplicaCluster(t, 3, router.ReadRoundRobin)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			next := c.nextRing(2, 777)

			failpoint.Enable(site, failpoint.Policy{Action: failpoint.Error, Times: 1})
			_, err := RingUpdate(ctx, RingUpdateOptions{
				Router: c.routerClient, Shards: c.shardClients,
				Ring: next, Replicas: clusterRF, PollInterval: 10 * time.Millisecond,
			})
			failpoint.Disable(site)
			if err == nil {
				t.Fatalf("update survived an injected %s failure", site)
			}

			// Mid-protocol the cluster must still serve the old corpus
			// exactly: every shard either still on epoch 1 or consistently
			// prepared, and every answer full, fresh, identical.
			for s, sc := range c.shardClients {
				st, err := sc.RingStatus(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if st.Current.Epoch != 1 {
					t.Fatalf("shard %d current epoch %d after failed update, want 1", s, st.Current.Epoch)
				}
			}
			c.checkIdentity(t, "after injected failure", 3)

			// Idempotent re-run resumes and completes.
			if _, err := RingUpdate(ctx, RingUpdateOptions{
				Router: c.routerClient, Shards: c.shardClients,
				Ring: next, Replicas: clusterRF, PollInterval: 10 * time.Millisecond,
			}); err != nil {
				t.Fatalf("re-run after injected %s failure: %v", site, err)
			}
			c.checkIdentity(t, "after recovery", 3)
		})
	}
}

// TestRingUpdateAbort rolls a prepared update back: abort on router and
// shards restores steady state on the old epoch, identity intact, and a
// later update still succeeds.
func TestRingUpdateAbort(t *testing.T) {
	c := newReplicaCluster(t, 3, router.ReadRoundRobin)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	next := c.nextRing(2, 777)
	wire := server.RingConfigWire{Shards: next.Shards, VNodes: next.VNodes, Seed: next.Seed, Epoch: next.Epoch, Replicas: clusterRF}

	if _, err := c.routerClient.RingPhase(ctx, server.RingUpdateRequest{Phase: "prepare", Ring: wire}); err != nil {
		t.Fatal(err)
	}
	for _, sc := range c.shardClients {
		if _, err := sc.RingPhase(ctx, server.RingUpdateRequest{Phase: "prepare", Ring: wire}); err != nil {
			t.Fatal(err)
		}
	}
	abort := server.RingUpdateRequest{Phase: "abort"}
	if _, err := c.routerClient.RingPhase(ctx, abort); err != nil {
		t.Fatal(err)
	}
	for s, sc := range c.shardClients {
		if _, err := sc.RingPhase(ctx, abort); err != nil {
			t.Fatal(err)
		}
		st, err := sc.RingStatus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "migrating" || st.Pending != nil || st.Current.Epoch != 1 {
			t.Fatalf("shard %d after abort: state %q pending %v epoch %d", s, st.State, st.Pending, st.Current.Epoch)
		}
	}
	c.checkIdentity(t, "after abort", 3)

	if _, err := RingUpdate(ctx, RingUpdateOptions{
		Router: c.routerClient, Shards: c.shardClients,
		Ring: c.nextRing(3, 555), Replicas: clusterRF, PollInterval: 10 * time.Millisecond,
	}); err != nil {
		t.Fatalf("update after abort: %v", err)
	}
	c.checkIdentity(t, "after post-abort update", 3)
}

// TestRoutedDeleteInRingTransitionWindow deletes a photo in the window
// after the shards committed a new ring and before the router did. The
// current ring's primary has already shed the photo at its commit, while
// the pending ring's owners still hold it: the router must move the
// synchronous leg on to them instead of answering "not indexed" and
// leaving the photo searchable.
func TestRoutedDeleteInRingTransitionWindow(t *testing.T) {
	c := newReplicaCluster(t, 3, router.ReadRoundRobin)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	next := c.nextRing(2, 777)
	if err := c.rt.RingPrepare(next, clusterRF); err != nil {
		t.Fatalf("router prepare: %v", err)
	}
	if _, err := RingUpdate(ctx, RingUpdateOptions{
		Shards: c.shardClients, Ring: next, Replicas: clusterRF, PollInterval: 10 * time.Millisecond,
	}); err != nil {
		t.Fatalf("shard ring update: %v", err)
	}

	cur, err := placement.New(c.ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	pending, err := placement.New(next)
	if err != nil {
		t.Fatal(err)
	}
	var victim *simimg.Photo
	for _, p := range c.ds.Photos {
		if !pending.OwnedBy(p.ID, clusterRF, cur.Owners(p.ID, clusterRF)[0]) {
			victim = p
			break
		}
	}
	if victim == nil {
		t.Fatal("no photo whose current primary loses it under the pending ring")
	}
	if err := c.routerClient.Delete(ctx, victim.ID); err != nil {
		t.Fatalf("delete %d in the transition window: %v", victim.ID, err)
	}
	if err := c.union.Delete(victim.ID); err != nil {
		t.Fatal(err)
	}

	if err := c.rt.QuiesceReplicas(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	if err := c.rt.RingCommit(next.Epoch); err != nil {
		t.Fatalf("router commit: %v", err)
	}
	copies := 0
	for _, sc := range c.shardClients {
		st, err := sc.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		copies += st.Photos
	}
	if want := clusterRF * c.union.Len(); copies != want {
		t.Fatalf("cluster holds %d copies after the delete, want %d", copies, want)
	}
	got, err := c.routerClient.Query(ctx, victim.Img, 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID == victim.ID {
			t.Fatalf("deleted photo %d is still searchable", victim.ID)
		}
	}
	c.checkIdentity(t, "after the transition-window delete", 4)
}

// TestReplicationChurnSoak is the -race soak: continuous queries under
// every read policy race concurrent replicated inserts and deletes and a
// mid-soak live ring update; at the end the cluster is quiesced and every
// policy must answer byte-identically to an oracle that applied the same
// mutations. Run with -race to let the detector watch the router's
// freshness ledger, the apply workers, and the shard migration machinery
// interleave.
func TestReplicationChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	c := newReplicaCluster(t, 3, router.ReadRoundRobin)
	ctx := context.Background()

	// Two more in-process routers give every read policy a live reader.
	ring, err := placement.New(c.ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	readers := []*router.Router{c.rt}
	for _, pol := range []router.ReadPolicy{router.ReadPrimary, router.ReadHedged} {
		backends := make([]router.Backend, len(c.shardClients))
		for i, sc := range c.shardClients {
			backends[i] = router.NewClientBackend(sc)
		}
		rt, err := router.New(router.Config{
			Shards: backends, Ring: ring, Replicas: clusterRF, Policy: pol, ShardTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		readers = append(readers, rt)
	}

	qs, err := c.ds.Queries(5, 911)
	if err != nil {
		t.Fatal(err)
	}
	var (
		stop     = make(chan struct{})
		firstErr = make(chan error, 8)
		wg       sync.WaitGroup
		oracleMu sync.Mutex // guards c.union mutations vs oracle reads
	)
	report := func(err error) {
		select {
		case firstErr <- err:
		default:
		}
	}

	// Readers: one goroutine per policy, hammering probes. Mid-soak
	// answers are not compared (async replication means a reader may
	// legitimately race a write); they must simply never error.
	for _, rt := range readers {
		wg.Add(1)
		go func(rt *router.Router) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[rng.Intn(len(qs))]
				if _, _, err := rt.Query(ctx, q.Probe, 20); err != nil {
					report(fmt.Errorf("soak query: %w", err))
					return
				}
			}
		}(rt)
	}

	// Writer: replicated inserts and deletes through the HTTP router,
	// mirrored into the oracle after each ack.
	victims := c.union.IDs()[:30]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 2 {
				id := victims[i/3]
				if err := c.routerClient.Delete(ctx, id); err != nil {
					report(fmt.Errorf("soak delete %d: %w", id, err))
					return
				}
				oracleMu.Lock()
				err := c.union.Delete(id)
				oracleMu.Unlock()
				if err != nil {
					report(err)
					return
				}
			} else {
				id := uint64(700_000 + i)
				p := c.ds.FreshPhoto(id, int64(i))
				if err := c.routerClient.Insert(ctx, id, p.Img); err != nil {
					report(fmt.Errorf("soak insert %d: %w", id, err))
					return
				}
				oracleMu.Lock()
				err := c.union.Insert(c.ds.FreshPhoto(id, int64(i)))
				oracleMu.Unlock()
				if err != nil {
					report(err)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Mid-soak live ring update: routers prepare first (double-read/write
	// from that point), shards migrate and commit behind the readiness
	// barrier, routers commit last.
	time.Sleep(50 * time.Millisecond)
	next := c.nextRing(2, 777)
	for _, rt := range readers {
		if err := rt.RingPrepare(next, clusterRF); err != nil {
			t.Fatalf("router prepare: %v", err)
		}
	}
	uctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	if _, err := RingUpdate(uctx, RingUpdateOptions{
		Shards: c.shardClients, Ring: next, Replicas: clusterRF, PollInterval: 10 * time.Millisecond,
	}); err != nil {
		cancel()
		t.Fatalf("mid-soak ring update: %v", err)
	}
	cancel()
	for _, rt := range readers {
		if err := rt.RingCommit(next.Epoch); err != nil {
			t.Fatalf("router commit: %v", err)
		}
	}

	time.Sleep(100 * time.Millisecond) // post-update churn under the new ring
	close(stop)
	wg.Wait()
	select {
	case err := <-firstErr:
		t.Fatal(err)
	default:
	}

	// Quiesce: drain the writer router's async applies, then every policy
	// must answer byte-identically to the oracle.
	qctx, qcancel := context.WithTimeout(ctx, 30*time.Second)
	defer qcancel()
	if err := c.rt.QuiesceReplicas(qctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	const topK = 25
	for ri, rt := range readers {
		for qi, q := range qs {
			want, err := c.union.Query(q.Probe, topK)
			if err != nil {
				t.Fatal(err)
			}
			got, meta, err := rt.Query(ctx, q.Probe, topK)
			if err != nil {
				t.Fatalf("post-soak reader %d query %d: %v", ri, qi, err)
			}
			if meta.Partial || meta.Stale {
				t.Fatalf("post-soak reader %d query %d flagged partial=%v stale=%v", ri, qi, meta.Partial, meta.Stale)
			}
			if len(got) != len(want) {
				t.Fatalf("post-soak reader %d query %d: %d results, oracle %d", ri, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("post-soak reader %d query %d rank %d: got {%d %.17g}, oracle {%d %.17g}",
						ri, qi, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				}
			}
		}
	}
}
