package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/client"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/placement"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/workload"
)

// engineBackend adapts an in-process engine to the Backend interface, so
// router semantics are tested against real index behavior without HTTP in
// the loop (the client/server wire is float64-exact by construction and is
// exercised by the CI cluster smoke). The mutex guards
// the op logs: async replica applies hit a backend from worker goroutines.
type engineBackend struct {
	eng *core.Engine

	mu         sync.Mutex
	failReads  bool
	failWrites bool
	queries    int
	inserts    []uint64
	deletes    []uint64
}

var errShardDown = errors.New("shard down")

func (b *engineBackend) fail(write bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if write {
		return b.failWrites
	}
	return b.failReads
}

func (b *engineBackend) setFail(reads, writes bool) {
	b.mu.Lock()
	b.failReads, b.failWrites = reads, writes
	b.mu.Unlock()
}

func (b *engineBackend) Query(ctx context.Context, img *simimg.Image, topK int) (Answer, error) {
	b.mu.Lock()
	b.queries++
	b.mu.Unlock()
	if b.fail(false) {
		return Answer{}, errShardDown
	}
	// Same ordering as the serving layer: sample the freshness token
	// before the query so the claimed epoch is a lower bound on the view.
	epoch := b.eng.PublishedEpoch()
	res, err := b.eng.Query(img, topK)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Results: res, Epoch: epoch}, nil
}

func (b *engineBackend) Insert(ctx context.Context, id uint64, img *simimg.Image) (uint64, error) {
	if b.fail(true) {
		return 0, errShardDown
	}
	if err := b.eng.Insert(&simimg.Photo{ID: id, Img: img}); err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.inserts = append(b.inserts, id)
	b.mu.Unlock()
	return b.eng.PublishedEpoch(), nil
}

func (b *engineBackend) Delete(ctx context.Context, id uint64) (uint64, error) {
	if b.fail(true) {
		return 0, errShardDown
	}
	if err := b.eng.Delete(id); err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.deletes = append(b.deletes, id)
	b.mu.Unlock()
	return b.eng.PublishedEpoch(), nil
}

func (b *engineBackend) queryCalls() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queries
}

func (b *engineBackend) insertLog() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]uint64(nil), b.inserts...)
}

func (b *engineBackend) deleteLog() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]uint64(nil), b.deletes...)
}

func (b *engineBackend) Stats(ctx context.Context) (server.Stats, error) {
	if b.fail(false) {
		return server.Stats{}, errShardDown
	}
	return server.Stats{Photos: b.eng.Len()}, nil
}

func (b *engineBackend) Healthy(ctx context.Context) error {
	if b.fail(false) {
		return errShardDown
	}
	return nil
}

// testCorpus builds the union dataset shared by the router tests.
func testCorpus(t *testing.T) *workload.Dataset {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		Name: "router", Scenes: 6, Photos: 120, Subjects: 3,
		SubjectRate: 0.25, Resolution: 32, Seed: 17, SceneBase: 700,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// buildUnion builds the oracle engine over the whole corpus with group
// expansion disabled — expansion walks stored summaries of top hits across
// the whole index, which cannot be replicated by shards that each hold a
// subset, so cluster serving always runs with it off.
func buildUnion(t *testing.T, ds *workload.Dataset) *core.Engine {
	t.Helper()
	eng := core.NewEngine(core.Config{GroupExpand: -1})
	if _, err := eng.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	return eng
}

// shardEngines derives per-shard engines from the union engine's
// serialization: every shard restores the same snapshot (same trained PCA
// basis, same LSH geometry — the preconditions for identical scores) and
// deletes the photos outside its Owners(id, replicas) membership. This
// mirrors exactly what fastd -shard-index -replicas does at bootstrap.
func shardEngines(t *testing.T, union *core.Engine, ring *placement.Ring, replicas int) []*core.Engine {
	t.Helper()
	var buf bytes.Buffer
	if _, err := union.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.Engine, ring.Shards())
	for s := range engines {
		eng, err := core.ReadEngine(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range eng.IDs() {
			if !ring.OwnedBy(id, replicas, s) {
				if err := eng.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		engines[s] = eng
	}
	return engines
}

func newTestRouter(t *testing.T, engines []*core.Engine, ring *placement.Ring, replicas int, policy ReadPolicy) (*Router, []*engineBackend) {
	t.Helper()
	backends := make([]*engineBackend, len(engines))
	shards := make([]Backend, len(engines))
	for i, eng := range engines {
		backends[i] = &engineBackend{eng: eng}
		shards[i] = backends[i]
	}
	rt, err := New(Config{Shards: shards, Ring: ring, Replicas: replicas, Policy: policy, ShardTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, backends
}

func assertIdentical(t *testing.T, label string, got, want []core.SearchResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: got {%d %.17g}, oracle {%d %.17g}",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

var allPolicies = []ReadPolicy{ReadPrimary, ReadRoundRobin, ReadHedged}

// TestRouterTopKByteIdenticalOverRandomSplits is the cluster's core
// correctness property: for random shard counts, ring seeds, and topK
// budgets, a query routed over the shard split and merged must return
// exactly — same IDs, bit-identical scores, same order — what the
// single-node union engine returns.
func TestRouterTopKByteIdenticalOverRandomSplits(t *testing.T) {
	ds := testCorpus(t)
	union := buildUnion(t, ds)
	qs, err := ds.Queries(6, 900)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	trials := 5
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		shards := 2 + rng.Intn(4) // 2..5
		ring, err := placement.New(placement.Config{
			Shards: shards,
			VNodes: 16 + rng.Intn(64),
			Seed:   rng.Uint64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rt, _ := newTestRouter(t, shardEngines(t, union, ring, 1), ring, 1, ReadPrimary)
		topK := 1 + rng.Intn(60)
		for qi, q := range qs {
			want, err := union.Query(q.Probe, topK)
			if err != nil {
				t.Fatal(err)
			}
			got, meta, err := rt.Query(context.Background(), q.Probe, topK)
			if err != nil {
				t.Fatalf("trial %d query %d: %v", trial, qi, err)
			}
			if meta.Partial {
				t.Fatalf("trial %d query %d flagged partial with all shards up", trial, qi)
			}
			assertIdentical(t, fmt.Sprintf("trial %d (shards=%d topK=%d) query %d", trial, shards, topK, qi), got, want)
		}
	}
}

// TestReplicaPoliciesByteIdenticalProperty is the replication property
// battery: over random shard counts × replica factors × ring seeds, every
// read policy must answer byte-identically to the single-node oracle —
// and with rf ≥ 2, killing any single randomly chosen shard mid-fan-out
// must still yield a FULL (partial=false) identical answer served from
// the surviving replicas.
func TestReplicaPoliciesByteIdenticalProperty(t *testing.T) {
	ds := testCorpus(t)
	union := buildUnion(t, ds)
	qs, err := ds.Queries(4, 903)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(90125))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	const topK = 30
	for trial := 0; trial < trials; trial++ {
		shards := 2 + rng.Intn(4) // 2..5
		rf := 1 + rng.Intn(shards)
		if rf > 3 {
			rf = 3
		}
		ring, err := placement.New(placement.Config{
			Shards: shards,
			VNodes: 16 + rng.Intn(48),
			Seed:   rng.Uint64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		engines := shardEngines(t, union, ring, rf)
		for _, pol := range allPolicies {
			rt, backends := newTestRouter(t, engines, ring, rf, pol)
			label := fmt.Sprintf("trial %d (shards=%d rf=%d policy=%s)", trial, shards, rf, pol)
			for qi, q := range qs {
				want, err := union.Query(q.Probe, topK)
				if err != nil {
					t.Fatal(err)
				}
				got, meta, err := rt.Query(context.Background(), q.Probe, topK)
				if err != nil {
					t.Fatalf("%s query %d: %v", label, qi, err)
				}
				if meta.Partial || meta.Stale {
					t.Fatalf("%s query %d flagged partial=%v stale=%v with all shards up",
						label, qi, meta.Partial, meta.Stale)
				}
				assertIdentical(t, fmt.Sprintf("%s query %d", label, qi), got, want)
			}
			// Replica reads must scale: with every shard fresh the
			// round-robin policy skips rf-1 shards per read and, by the
			// coverage lemma, never needs a repair wave — so each read
			// costs exactly S-rf+1 shard queries, not S.
			if pol == ReadRoundRobin && rf >= 2 {
				calls := 0
				for _, b := range backends {
					calls += b.queryCalls()
				}
				frac := float64(calls) / float64(len(qs)*shards)
				if limit := float64(shards-rf+1)/float64(shards) + 0.1; frac > limit {
					t.Fatalf("%s: %d shard queries for %d reads = %.2f of shards per read, want <= %.2f",
						label, calls, len(qs), frac, limit)
				}
			}
			// Kill one random shard: with rf ≥ 2 the survivors hold every
			// photo (any S-1 shards intersect every rf-owner window), so
			// the answer must stay full and identical.
			if rf >= 2 {
				victim := rng.Intn(shards)
				backends[victim].setFail(true, true)
				for qi, q := range qs {
					want, err := union.Query(q.Probe, topK)
					if err != nil {
						t.Fatal(err)
					}
					got, meta, err := rt.Query(context.Background(), q.Probe, topK)
					if err != nil {
						t.Fatalf("%s query %d with shard %d down: %v", label, qi, victim, err)
					}
					if meta.Partial {
						t.Fatalf("%s query %d flagged partial with shard %d down and rf=%d",
							label, qi, victim, rf)
					}
					assertIdentical(t, fmt.Sprintf("%s query %d (shard %d down)", label, qi, victim), got, want)
				}
				backends[victim].setFail(false, false)
			}
		}
	}
}

// TestReplicaKillAnySingleShardFullAnswer pins the fail-over guarantee
// exhaustively on the CI topology: 3 shards, rf=2, killing EACH shard in
// turn under EVERY policy still answers full and byte-identical.
func TestReplicaKillAnySingleShardFullAnswer(t *testing.T) {
	ds := testCorpus(t)
	union := buildUnion(t, ds)
	ring, err := placement.New(placement.Config{Shards: 3, VNodes: 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	engines := shardEngines(t, union, ring, 2)
	qs, err := ds.Queries(3, 904)
	if err != nil {
		t.Fatal(err)
	}
	const topK = 25
	for _, pol := range allPolicies {
		for victim := 0; victim < 3; victim++ {
			rt, backends := newTestRouter(t, engines, ring, 2, pol)
			backends[victim].setFail(true, true)
			for qi, q := range qs {
				want, err := union.Query(q.Probe, topK)
				if err != nil {
					t.Fatal(err)
				}
				got, meta, err := rt.Query(context.Background(), q.Probe, topK)
				if err != nil {
					t.Fatalf("policy %s, shard %d down, query %d: %v", pol, victim, qi, err)
				}
				if meta.Partial {
					t.Fatalf("policy %s, shard %d down, query %d: flagged partial at rf=2", pol, victim, qi)
				}
				assertIdentical(t, fmt.Sprintf("policy %s shard %d down query %d", pol, victim, qi), got, want)
			}
			rt.Close()
		}
	}
}

// TestReplicatedWritesReachAllOwners: every insert and delete lands
// synchronously on its primary and asynchronously on every other owner;
// after a quiesce each owner's engine holds (or no longer holds) the id.
func TestReplicatedWritesReachAllOwners(t *testing.T) {
	ds := testCorpus(t)
	union := buildUnion(t, ds)
	ring, err := placement.New(placement.Config{Shards: 4, VNodes: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const rf = 2
	rt, backends := newTestRouter(t, shardEngines(t, union, ring, rf), ring, rf, ReadRoundRobin)
	ctx := context.Background()

	ids := make([]uint64, 12)
	for i := range ids {
		ids[i] = uint64(500_000 + i)
		p := ds.FreshPhoto(ids[i], int64(i))
		if err := rt.Insert(ctx, ids[i], p.Img); err != nil {
			t.Fatalf("Insert %d: %v", ids[i], err)
		}
	}
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := rt.QuiesceReplicas(qctx); err != nil {
		t.Fatalf("quiesce after inserts: %v", err)
	}
	for _, id := range ids {
		owners := ring.Owners(id, rf)
		for s, b := range backends {
			owned := ring.OwnedBy(id, rf, s)
			if owned != b.eng.Contains(id) {
				t.Fatalf("insert %d: shard %d contains=%v, owners %v", id, s, b.eng.Contains(id), owners)
			}
			logged := false
			for _, got := range b.insertLog() {
				if got == id {
					logged = true
				}
			}
			if logged != owned {
				t.Fatalf("insert %d: shard %d logged=%v, owners %v", id, s, logged, owners)
			}
		}
	}

	victim := ids[0]
	if err := rt.Delete(ctx, victim); err != nil {
		t.Fatalf("Delete %d: %v", victim, err)
	}
	qctx2, cancel2 := context.WithTimeout(ctx, 10*time.Second)
	defer cancel2()
	if err := rt.QuiesceReplicas(qctx2); err != nil {
		t.Fatalf("quiesce after delete: %v", err)
	}
	for s, b := range backends {
		if b.eng.Contains(victim) {
			t.Fatalf("delete %d: shard %d still holds it", victim, s)
		}
		if ring.OwnedBy(victim, rf, s) {
			if log := b.deleteLog(); len(log) != 1 || log[0] != victim {
				t.Fatalf("delete %d: owner shard %d log %v", victim, s, log)
			}
		}
	}
	st := rt.Stats(ctx)
	if st.AsyncErrors != 0 || st.AsyncDropped != 0 || st.AsyncPending != 0 {
		t.Fatalf("async replication not clean: %+v", st)
	}
}

// TestStaleReplicaSkippedUntilClean: a replica that fails its async
// applies is marked dirty; scaled reads skip it (answers stay full, fresh
// and identical) rather than serving from a shard known to lag.
func TestStaleReplicaSkipped(t *testing.T) {
	ds := testCorpus(t)
	union := buildUnion(t, ds)
	ring, err := placement.New(placement.Config{Shards: 3, VNodes: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const rf = 2
	rt, backends := newTestRouter(t, shardEngines(t, union, ring, rf), ring, rf, ReadRoundRobin)
	ctx := context.Background()

	// Find fresh ids whose replica set includes shard 2 but whose primary
	// is elsewhere, so the sync write succeeds and only the async replica
	// apply fails.
	const lagged = 2
	backends[lagged].setFail(false, true)
	var planted []uint64
	for i := 0; len(planted) < 4 && i < 4000; i++ {
		id := uint64(600_000 + i)
		owners := ring.Owners(id, rf)
		if owners[0] != lagged && ring.OwnedBy(id, rf, lagged) {
			p := ds.FreshPhoto(id, int64(100+i))
			if err := rt.Insert(ctx, id, p.Img); err != nil {
				t.Fatalf("Insert %d: %v", id, err)
			}
			if err := union.Insert(ds.FreshPhoto(id, int64(100+i))); err != nil {
				t.Fatal(err)
			}
			planted = append(planted, id)
		}
	}
	if len(planted) == 0 {
		t.Fatal("no candidate ids replicated onto the lagging shard")
	}
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := rt.QuiesceReplicas(qctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	st := rt.Stats(ctx)
	if st.AsyncErrors == 0 {
		t.Fatalf("lagging shard produced no apply errors: %+v", st)
	}
	if st.PerShard[lagged].Synced {
		t.Fatalf("lagging shard still considered synced: %+v", st.PerShard[lagged])
	}

	// Reads must not trust the dirty replica: answers stay full, fresh,
	// and identical to the oracle that has all the inserts.
	qs, err := ds.Queries(4, 905)
	if err != nil {
		t.Fatal(err)
	}
	const topK = 30
	for qi, q := range qs {
		want, err := union.Query(q.Probe, topK)
		if err != nil {
			t.Fatal(err)
		}
		got, meta, err := rt.Query(ctx, q.Probe, topK)
		if err != nil {
			t.Fatalf("query %d with dirty replica: %v", qi, err)
		}
		if meta.Partial || meta.Stale {
			t.Fatalf("query %d flagged partial=%v stale=%v; a clean replica set exists", qi, meta.Partial, meta.Stale)
		}
		assertIdentical(t, fmt.Sprintf("query %d (dirty replica)", qi), got, want)
	}
}

// TestRouterPartialAndQuorum drives the degradation ladder on a 3-shard
// rf=1 cluster: one dead shard → partial answers that exactly merge the
// live shards; two dead shards → quorum lost.
func TestRouterPartialAndQuorum(t *testing.T) {
	ds := testCorpus(t)
	union := buildUnion(t, ds)
	ring, err := placement.New(placement.Config{Shards: 3, VNodes: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	engines := shardEngines(t, union, ring, 1)
	rt, backends := newTestRouter(t, engines, ring, 1, ReadPrimary)
	qs, err := ds.Queries(3, 901)
	if err != nil {
		t.Fatal(err)
	}
	const topK = 30

	backends[1].setFail(true, true)
	for qi, q := range qs {
		got, meta, err := rt.Query(context.Background(), q.Probe, topK)
		if err != nil {
			t.Fatalf("query %d with one shard down: %v", qi, err)
		}
		if !meta.Partial {
			t.Fatalf("query %d not flagged partial with shard 1 down at rf=1", qi)
		}
		// The partial answer must be exactly the merge of the live shards.
		var lists [][]core.SearchResult
		for s, eng := range engines {
			if s == 1 {
				continue
			}
			res, err := eng.Query(q.Probe, topK)
			if err != nil {
				t.Fatal(err)
			}
			lists = append(lists, res)
		}
		want := MergeTopK(lists, topK)
		assertIdentical(t, fmt.Sprintf("query %d partial", qi), got, want)
	}
	if err := rt.Healthy(context.Background()); err != nil {
		t.Fatalf("router unhealthy with 2/3 shards up: %v", err)
	}

	backends[2].setFail(true, true)
	if _, _, err := rt.Query(context.Background(), qs[0].Probe, topK); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("2/3 shards down: got %v, want ErrQuorumLost", err)
	}
	if err := rt.Healthy(context.Background()); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("healthz with 1/3 shards up: got %v, want ErrQuorumLost", err)
	}

	st := rt.Stats(context.Background())
	if st.PartialQueries != int64(len(qs)) || st.QuorumLost != 1 || st.ShardsHealthy != 1 {
		t.Fatalf("stats missed the degradation: %+v", st)
	}
}

// TestRouterFanoutFailpoint exercises the deterministic failure injection
// the crash/timeout matrix uses: an Error policy on router/fanout fails
// exactly one shard leg (partial at rf=1), and router/merge fails the
// whole query after a successful fan-out.
func TestRouterFanoutFailpoint(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	failpoint.Reset()
	ds := testCorpus(t)
	union := buildUnion(t, ds)
	ring, err := placement.New(placement.Config{Shards: 3, VNodes: 32, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := newTestRouter(t, shardEngines(t, union, ring, 1), ring, 1, ReadPrimary)
	qs, err := ds.Queries(1, 902)
	if err != nil {
		t.Fatal(err)
	}

	failpoint.Enable(failpoint.RouterFanout, failpoint.Policy{Action: failpoint.Error, Times: 1})
	_, meta, err := rt.Query(context.Background(), qs[0].Probe, 20)
	failpoint.Disable(failpoint.RouterFanout)
	if err != nil || !meta.Partial {
		t.Fatalf("one injected fanout failure: partial=%v err=%v, want partial answer", meta.Partial, err)
	}

	failpoint.Enable(failpoint.RouterMerge, failpoint.Policy{Action: failpoint.Error, Times: 1})
	_, _, err = rt.Query(context.Background(), qs[0].Probe, 20)
	failpoint.Disable(failpoint.RouterMerge)
	if err == nil || !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("injected merge failure: got %v, want injected error", err)
	}
}

// TestRouterReplicaFailpoints drives the two replica-path sites:
// router/replica-pick (Error → the scaled read falls back to a full
// fan-out, never a wrong answer) and router/hedge (Error → the hedge is
// suppressed; a slow target is repaired by the failure fallback instead).
func TestRouterReplicaFailpoints(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	failpoint.Reset()
	ds := testCorpus(t)
	union := buildUnion(t, ds)
	ring, err := placement.New(placement.Config{Shards: 3, VNodes: 32, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	engines := shardEngines(t, union, ring, 2)
	qs, err := ds.Queries(2, 906)
	if err != nil {
		t.Fatal(err)
	}
	const topK = 25
	ctx := context.Background()

	// replica-pick failure: round-robin degrades to the full fan-out.
	rt, _ := newTestRouter(t, engines, ring, 2, ReadRoundRobin)
	failpoint.Enable(failpoint.RouterReplicaPick, failpoint.Policy{Action: failpoint.Error, Times: 1})
	want, err := union.Query(qs[0].Probe, topK)
	if err != nil {
		t.Fatal(err)
	}
	got, meta, err := rt.Query(ctx, qs[0].Probe, topK)
	failpoint.Disable(failpoint.RouterReplicaPick)
	if err != nil || meta.Partial {
		t.Fatalf("replica-pick failure: partial=%v err=%v, want full fallback answer", meta.Partial, err)
	}
	assertIdentical(t, "replica-pick fallback", got, want)

	// hedge suppression: the hedged policy still answers identically (the
	// repair wave covers what the suppressed hedge would have).
	hrt, hbackends := newTestRouter(t, engines, ring, 2, ReadHedged)
	hbackends[0].setFail(true, true)
	failpoint.Enable(failpoint.RouterHedge, failpoint.Policy{Action: failpoint.Error, Times: -1})
	for qi, q := range qs {
		want, err := union.Query(q.Probe, topK)
		if err != nil {
			t.Fatal(err)
		}
		got, meta, err := hrt.Query(ctx, q.Probe, topK)
		if err != nil {
			t.Fatalf("hedge suppressed, query %d: %v", qi, err)
		}
		if meta.Partial {
			t.Fatalf("hedge suppressed, query %d: partial at rf=2 with one shard down", qi)
		}
		assertIdentical(t, fmt.Sprintf("hedge suppressed query %d", qi), got, want)
	}
	failpoint.Disable(failpoint.RouterHedge)
}

// TestRouterRingTransitionDoubleRead: during a prepared-but-uncommitted
// ring update the router reads under BOTH placements (scaled reads are
// suspended), so answers stay full and identical whichever ring a photo's
// owners currently follow; commit under a wrong epoch is refused.
func TestRouterRingTransitionDoubleRead(t *testing.T) {
	ds := testCorpus(t)
	union := buildUnion(t, ds)
	ring, err := placement.New(placement.Config{Shards: 3, VNodes: 32, Seed: 10, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	const rf = 2
	engines := shardEngines(t, union, ring, rf)
	rt, _ := newTestRouter(t, engines, ring, rf, ReadRoundRobin)
	qs, err := ds.Queries(3, 907)
	if err != nil {
		t.Fatal(err)
	}
	const topK = 25
	ctx := context.Background()

	next := placement.Config{Shards: 3, VNodes: 32, Seed: 77, Epoch: 2}
	if err := rt.RingPrepare(next, rf); err != nil {
		t.Fatalf("RingPrepare: %v", err)
	}
	if st := rt.Stats(ctx); !st.RingTransition || st.RingNextEpoch != 2 {
		t.Fatalf("transition not visible in stats: %+v", st)
	}
	// Shards still hold the OLD placement's data; double-read must keep
	// answers full and identical anyway.
	for qi, q := range qs {
		want, err := union.Query(q.Probe, topK)
		if err != nil {
			t.Fatal(err)
		}
		got, meta, err := rt.Query(ctx, q.Probe, topK)
		if err != nil {
			t.Fatalf("query %d mid-transition: %v", qi, err)
		}
		if meta.Partial || meta.Stale {
			t.Fatalf("query %d mid-transition flagged partial=%v stale=%v", qi, meta.Partial, meta.Stale)
		}
		assertIdentical(t, fmt.Sprintf("query %d mid-transition", qi), got, want)
	}
	if err := rt.RingCommit(99); err == nil {
		t.Fatal("RingCommit with a wrong epoch succeeded")
	}
	rt.RingAbort()
	if st := rt.Stats(ctx); st.RingTransition || st.RingEpoch != 1 {
		t.Fatalf("abort did not restore steady state: %+v", st)
	}
	// Prepare again and commit properly this time.
	if err := rt.RingPrepare(next, rf); err != nil {
		t.Fatalf("re-prepare: %v", err)
	}
	if err := rt.RingCommit(2); err != nil {
		t.Fatalf("RingCommit: %v", err)
	}
	if st := rt.Stats(ctx); st.RingTransition || st.RingEpoch != 2 || st.RingUpdates != 1 {
		t.Fatalf("commit did not land: %+v", st)
	}
}

// TestMergeTopKOrdering pins the merge comparator to the engine's exact
// ordering — score descending, ID ascending on ties — plus dedup-by-ID
// keeping the best-ranked occurrence and truncation to topK.
func TestMergeTopKOrdering(t *testing.T) {
	r := func(id uint64, score float64) core.SearchResult { return core.SearchResult{ID: id, Score: score} }
	lists := [][]core.SearchResult{
		{r(5, 0.9), r(2, 0.5), r(9, 0.5)},
		{r(1, 0.9), r(3, 0.5), r(2, 0.3)}, // 2 duplicated at lower rank
		{},
	}
	got := MergeTopK(lists, 10)
	want := []core.SearchResult{r(1, 0.9), r(5, 0.9), r(2, 0.5), r(3, 0.5), r(9, 0.5)}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merge order:\n got %v\nwant %v", got, want)
	}
	if got := MergeTopK(lists, 2); len(got) != 2 || got[0].ID != 1 || got[1].ID != 5 {
		t.Fatalf("topK truncation: %v", got)
	}
	if got := MergeTopK(nil, 5); len(got) != 0 {
		t.Fatalf("empty merge: %v", got)
	}
}

// TestWriteConvergenceFollowsErrorCodes puts a shard behind HTTP that
// refuses every mutation in its own words but with the wire code of the
// typed engine error. The router must read the code, not the text: an
// "already indexed" replica apply counts as converged, and a "not indexed"
// primary hands the synchronous delete to the next owner.
func TestWriteConvergenceFollowsErrorCodes(t *testing.T) {
	ds := testCorpus(t)
	eng := buildUnion(t, ds)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code := "not_indexed"
		if r.URL.Path == "/v1/insert" {
			code = "already_indexed"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "refused, in other words", Code: code})
	}))
	defer hs.Close()
	ring, err := placement.New(placement.Config{Shards: 2, VNodes: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	shards := []Backend{&engineBackend{eng: eng}, NewClientBackend(client.New(hs.URL, client.WithHTTPClient(hs.Client())))}
	rt, err := New(Config{Shards: shards, Ring: ring, Replicas: 2, Policy: ReadPrimary, ShardTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()

	// An insert whose primary is the engine shard: the HTTP replica's
	// apply is refused as already indexed, which is convergence.
	id := uint64(600_000)
	for ring.Owners(id, 2)[0] != 0 {
		id++
	}
	if err := rt.Insert(ctx, id, ds.FreshPhoto(id, 3).Img); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := rt.QuiesceReplicas(qctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	if st := rt.Stats(ctx); st.AsyncErrors != 0 {
		t.Fatalf("an already-indexed apply counted as %d async errors", st.AsyncErrors)
	}

	// A delete whose primary is the HTTP shard: its not-indexed refusal
	// moves the synchronous leg on to the engine shard.
	var victim uint64
	for _, p := range ds.Photos {
		if ring.Owners(p.ID, 2)[0] == 1 {
			victim = p.ID
			break
		}
	}
	if err := rt.Delete(ctx, victim); err != nil {
		t.Fatalf("Delete %d: %v", victim, err)
	}
	if eng.Contains(victim) {
		t.Fatalf("photo %d still indexed on the second owner", victim)
	}
}
