package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/chunk"
	"github.com/fastrepro/fast/internal/client"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/lsh"
	"github.com/fastrepro/fast/internal/placement"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/store"
	"github.com/fastrepro/fast/internal/workload"
)

var (
	baseOnce sync.Once
	baseDS   *workload.Dataset
	baseSnap []byte // snapshot of an engine built over baseDS
)

// baseEngine returns a fresh engine equivalent to the shared built one by
// restoring it from a cached snapshot, so each test can mutate its own copy
// without paying feature extraction again.
func baseEngine(t *testing.T) (*core.Engine, *workload.Dataset) {
	t.Helper()
	baseOnce.Do(func() {
		ds, err := workload.Generate(workload.Spec{
			Name: "server-test", Scenes: 5, Photos: 48, Subjects: 3,
			SubjectRate: 0.3, Resolution: 64, Seed: 19, SceneBase: 8100,
		})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		e := core.NewEngine(core.Config{})
		if _, err := e.Build(ds.Photos); err != nil {
			t.Fatalf("Build: %v", err)
		}
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		baseDS, baseSnap = ds, buf.Bytes()
	})
	if baseSnap == nil {
		t.Fatal("base engine construction failed earlier")
	}
	e, err := core.ReadEngine(bytes.NewReader(baseSnap))
	if err != nil {
		t.Fatalf("ReadEngine: %v", err)
	}
	return e, baseDS
}

// startServer boots the serving stack on an in-process listener.
func startServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	c := client.New(hs.URL, client.WithHTTPClient(hs.Client()), client.WithRetries(2, 20*time.Millisecond))
	return s, hs, c
}

// TestQueryIdentityOverWire fires 32 concurrent network queries with mixed
// topK budgets at a server configured with the deprecated one-second
// Window: every answer must be byte-identical to a direct Engine.Query
// call, and no query may wait on the window — queries run straight on
// their handler goroutines.
func TestQueryIdentityOverWire(t *testing.T) {
	eng, ds := baseEngine(t)
	s, _, c := startServer(t, server.Config{Engine: eng, Window: time.Second})

	qs, err := ds.Queries(8, 33)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		qi   int
		topK int
		got  []core.SearchResult
		err  error
	}
	const rounds = 4
	results := make(chan result, rounds*len(qs))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for qi := range qs {
			topK := 50
			if (r+qi)%2 == 1 {
				topK = 5
			}
			wg.Add(1)
			go func(qi, topK int) {
				defer wg.Done()
				got, err := c.Query(context.Background(), qs[qi].Probe, topK)
				results <- result{qi: qi, topK: topK, got: got, err: err}
			}(qi, topK)
		}
	}
	wg.Wait()
	close(results)

	for res := range results {
		if res.err != nil {
			t.Fatalf("query %d: %v", res.qi, res.err)
		}
		want, err := eng.Query(qs[res.qi].Probe, res.topK)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.got) != len(want) {
			t.Fatalf("query %d topK %d: %d results over the wire, %d direct", res.qi, res.topK, len(res.got), len(want))
		}
		for i := range want {
			if res.got[i] != want[i] {
				t.Fatalf("query %d result %d differs: %+v vs %+v", res.qi, i, res.got[i], want[i])
			}
		}
	}

	st := s.Stats()
	if st.Queries != rounds*int64(len(qs)) {
		t.Errorf("stats queries = %d, want %d", st.Queries, rounds*len(qs))
	}
	if st.QueueWaitMeanNs != 0 {
		t.Errorf("queries waited on a window: queue wait mean %v", time.Duration(st.QueueWaitMeanNs))
	}
}

// TestInsertsNeverWaitOnWindow runs eight sequential wire inserts against
// a server configured with the deprecated one-second Window and BatchMax:
// each insert runs Engine.Insert on its own handler goroutine, so all
// eight finish well inside one window and every photo is indexed when its
// acknowledgment arrives.
func TestInsertsNeverWaitOnWindow(t *testing.T) {
	eng, ds := baseEngine(t)
	s, _, c := startServer(t, server.Config{Engine: eng, Window: time.Second, BatchMax: 32})
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 8; i++ {
		p := ds.FreshPhoto(uint64(9_400_001+i), int64(60+i))
		if err := c.Insert(ctx, p.ID, p.Img); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if !eng.Contains(p.ID) {
			t.Fatalf("insert %d acknowledged before it was indexed", i)
		}
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("8 sequential inserts took %v: inserts waited on the window", took)
	}
	if st := s.Stats(); st.Inserts != 8 || st.QueueWaitMeanNs != 0 {
		t.Fatalf("inserts/queue wait = %d/%v, want 8/0", st.Inserts, time.Duration(st.QueueWaitMeanNs))
	}
}

// TestDispatchInsertsResumesAfterFailure sends three concurrent wire
// inserts — fresh, duplicate, fresh. Each runs its own engine call, so the
// duplicate's 422 cannot fail or delay the fresh photos beside it.
func TestDispatchInsertsResumesAfterFailure(t *testing.T) {
	eng, ds := baseEngine(t)
	_, hs, _ := startServer(t, server.Config{Engine: eng})
	photos := []*simimg.Photo{ds.FreshPhoto(9_200_001, 21), ds.Photos[0], ds.FreshPhoto(9_200_002, 22)}
	want := []int{http.StatusOK, http.StatusUnprocessableEntity, http.StatusOK}
	codes := make([]int, len(photos))
	var wg sync.WaitGroup
	for i, p := range photos {
		wi, err := server.EncodeImage(p.Img)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(server.InsertRequest{ID: p.ID, Image: wi})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := hs.Client().Post(hs.URL+"/v1/insert", "application/json", bytes.NewReader(payload))
			if err != nil {
				codes[i] = -1
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("insert statuses %v, want %v", codes, want)
		}
	}
	indexed := map[uint64]bool{}
	for _, id := range eng.IDs() {
		indexed[id] = true
	}
	if !indexed[photos[0].ID] || !indexed[photos[2].ID] {
		t.Fatal("a fresh insert beside the failed duplicate was lost")
	}
}

func TestInsertDeleteOverWire(t *testing.T) {
	eng, ds := baseEngine(t)
	_, _, c := startServer(t, server.Config{Engine: eng})
	ctx := context.Background()

	p := ds.FreshPhoto(9_000_001, 5)
	if err := c.Insert(ctx, p.ID, p.Img); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if !eng.Contains(p.ID) {
		t.Fatal("inserted photo missing from engine")
	}
	// Duplicate insert fails without disturbing the index.
	if err := c.Insert(ctx, p.ID, p.Img); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if err := c.Delete(ctx, p.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if eng.Contains(p.ID) {
		t.Fatal("photo still indexed after delete")
	}
	if err := c.Delete(ctx, p.ID); err == nil {
		t.Fatal("double delete accepted")
	}
	// A request body without an id decodes to the reserved id 0.
	if err := c.Delete(ctx, 0); err == nil {
		t.Fatal("delete of id 0 accepted")
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Inserts != 1 || st.InsertErrors != 1 || st.Deletes != 1 {
		t.Errorf("stats inserts/errors/deletes = %d/%d/%d, want 1/1/1", st.Inserts, st.InsertErrors, st.Deletes)
	}
	if st.Photos != eng.Len() {
		t.Errorf("stats photos = %d, engine len %d", st.Photos, eng.Len())
	}
}

func TestSnapshotRestoreOverWire(t *testing.T) {
	engA, ds := baseEngine(t)
	_, _, cA := startServer(t, server.Config{Engine: engA})

	// Server B starts from a deliberately different index: the base corpus
	// minus a few photos.
	engB, _ := baseEngine(t)
	for _, p := range ds.Photos[:5] {
		if err := engB.Delete(p.ID); err != nil {
			t.Fatal(err)
		}
	}
	sB, _, cB := startServer(t, server.Config{Engine: engB})

	ctx := context.Background()
	var snap bytes.Buffer
	n, err := cA.Snapshot(ctx, &snap)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if n != int64(snap.Len()) || n == 0 {
		t.Fatalf("Snapshot reported %d bytes, buffered %d", n, snap.Len())
	}
	if err := cB.Restore(ctx, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := sB.Engine().Len(), engA.Len(); got != want {
		t.Fatalf("restored engine has %d photos, want %d", got, want)
	}

	qs, err := ds.Queries(4, 91)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		want, err := engA.Query(q.Probe, 30)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cB.Query(ctx, q.Probe, 30)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d vs %d results after restore", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d differs after restore", qi, i)
			}
		}
	}

	// Corrupt restores are refused and leave the engine untouched.
	if err := cB.Restore(ctx, bytes.NewReader(snap.Bytes()[:100])); err == nil {
		t.Fatal("truncated restore accepted")
	}
	if sB.Engine().Len() != engA.Len() {
		t.Fatal("failed restore disturbed the engine")
	}
}

// TestRingPrepareRefusesColdTier: a shard whose engine holds migrated cold
// entries refuses a ring prepare with 409 and stays steady with no pending
// ring. A peer's /v1/snapshot carries hot entries only, so accepting would
// let the commit shed cold entries no new owner acquired.
func TestRingPrepareRefusesColdTier(t *testing.T) {
	eng, ds := baseEngine(t)
	if _, err := eng.EnableColdTier(t.TempDir(), 0, 0); err != nil {
		t.Fatalf("EnableColdTier: %v", err)
	}
	if n, err := eng.MigrateCold(len(ds.Photos) / 2); err != nil || n == 0 {
		t.Fatalf("MigrateCold = %d, %v", n, err)
	}
	ring := placement.Config{Shards: 2, VNodes: 8, Seed: 3, Epoch: 1}
	s, hs, c := startServer(t, server.Config{Engine: eng, Shard: &server.ShardConfig{Index: 0, Ring: ring, Replicas: 2}})
	t.Cleanup(func() { s.Engine().CloseColdTier() })

	body, err := json.Marshal(server.RingUpdateRequest{Phase: "prepare",
		Ring: server.RingConfigWire{Shards: 2, VNodes: 8, Seed: 4, Epoch: 2, Replicas: 2}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/v1/ring", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/ring: %v", err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("prepare over a cold tier answered %d (%s), want 409", resp.StatusCode, msg)
	}
	if !bytes.Contains(msg, []byte("cold tier")) {
		t.Fatalf("refusal %q does not name the cold tier", msg)
	}
	st, err := c.RingStatus(context.Background())
	if err != nil {
		t.Fatalf("RingStatus: %v", err)
	}
	if st.State != "steady" || st.Pending != nil {
		t.Fatalf("after the refused prepare: state %q, pending %+v; want steady and none", st.State, st.Pending)
	}
}

// TestTieredStatsAndRestoreAdoption serves the corpus from a two-tier
// engine (half the photos migrated to the disk-resident cold tier): wire
// answers must be byte-identical to an all-RAM oracle, /v1/stats must
// expose the tiered_* counters, and a hot-snapshot restore must hand the
// open cold store to the replacement engine rather than dropping half the
// corpus.
func TestTieredStatsAndRestoreAdoption(t *testing.T) {
	oracle, ds := baseEngine(t)
	_, _, cA := startServer(t, server.Config{Engine: oracle})

	engB, _ := baseEngine(t)
	if _, err := engB.EnableColdTier(t.TempDir(), 0, 0); err != nil {
		t.Fatalf("EnableColdTier: %v", err)
	}
	if _, err := engB.MigrateCold(len(ds.Photos) / 2); err != nil {
		t.Fatalf("MigrateCold: %v", err)
	}
	sB, _, cB := startServer(t, server.Config{Engine: engB})
	t.Cleanup(func() { sB.Engine().CloseColdTier() })
	ctx := context.Background()

	st, err := cB.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if !st.TieredEnabled {
		t.Fatal("tiered_enabled = false on a tiered engine")
	}
	if st.TieredColdEntries == 0 || st.TieredSegments == 0 {
		t.Fatalf("cold tier empty in stats: %d entries, %d segments", st.TieredColdEntries, st.TieredSegments)
	}
	if got := st.TieredHotEntries + st.TieredColdEntries; got != len(ds.Photos) {
		t.Fatalf("hot+cold = %d, corpus %d", got, len(ds.Photos))
	}
	if st.Photos != len(ds.Photos) || st.TieredColdBytes <= 0 || st.TieredMigrations == 0 {
		t.Fatalf("tiered stats inconsistent: %+v", st)
	}

	checkIdentity := func(stage string) {
		t.Helper()
		qs, err := ds.Queries(4, 77)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range qs {
			want, err := oracle.Query(q.Probe, 30)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cB.Query(ctx, q.Probe, 30)
			if err != nil {
				t.Fatalf("%s query %d: %v", stage, qi, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d results over the wire, oracle %d", stage, qi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s query %d result %d: %+v vs oracle %+v", stage, qi, i, got[i], want[i])
				}
			}
		}
	}
	checkIdentity("tiered")

	st2, err := cB.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st2.TieredSpillProbes == 0 || st2.TieredPostingsScanned == 0 {
		t.Fatalf("queries never spilled to the cold tier: probes=%d postings=%d",
			st2.TieredSpillProbes, st2.TieredPostingsScanned)
	}

	// Restore an all-hot snapshot from the oracle's server: the replacement
	// engine must adopt B's open cold tier and reconcile the ids it already
	// serves from disk back out of RAM.
	var snap bytes.Buffer
	if _, err := cA.Snapshot(ctx, &snap); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := cB.Restore(ctx, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	st3, err := cB.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if !st3.TieredEnabled || st3.TieredColdEntries == 0 {
		t.Fatalf("cold tier lost across restore: %+v", st3)
	}
	if got := st3.TieredHotEntries + st3.TieredColdEntries; got != oracle.Len() {
		t.Fatalf("hot+cold = %d after restore, oracle %d", got, oracle.Len())
	}
	checkIdentity("restored")
}

// TestAdmissionBackpressure floods a server whose admission budget is one
// executing request and one waiting request; the overflow must be refused
// with 429 + Retry-After rather than queued without bound.
func TestAdmissionBackpressure(t *testing.T) {
	eng, ds := baseEngine(t)
	// A slow engine: every admitted query holds its slot for 300 ms, so the
	// rest of the flood deterministically piles up on the admission
	// controller: one waits, the overflow is refused.
	failpoint.Enable(failpoint.ServerDispatchQuery, failpoint.Policy{Action: failpoint.Delay, Delay: 300 * time.Millisecond})
	t.Cleanup(func() { failpoint.Disable(failpoint.ServerDispatchQuery) })
	_, hs, _ := startServer(t, server.Config{Engine: eng, MaxInflight: 1, MaxQueue: 1})

	qs, err := ds.Queries(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	wi, err := server.EncodeImage(qs[0].Probe)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(server.QueryRequest{Image: wi, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}

	const flood = 24
	codes := make(chan int, flood)
	var sawRetryAfter sync.Map
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := hs.Client().Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(payload))
			if err != nil {
				codes <- -1
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				sawRetryAfter.Store(resp.Header.Get("Retry-After"), true)
			}
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)

	counts := map[int]int{}
	for code := range codes {
		counts[code]++
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("no query got through: %v", counts)
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Errorf("no query was refused with 429: %v", counts)
	}
	if _, ok := sawRetryAfter.Load("1"); !ok {
		t.Error("429 responses did not carry Retry-After: 1")
	}
	if counts[-1] > 0 || len(counts) > 2 {
		t.Errorf("unexpected outcomes: %v", counts)
	}
}

// TestQueryFailpointErrorAndPanic arms the query and the insert site,
// each between admission and its engine call: Error must answer 422 and
// count an error, and Panic must cost only its own request — net/http
// recovers it, the admission slot (of a one-slot server) is handed back,
// and the next request is answered.
func TestQueryFailpointErrorAndPanic(t *testing.T) {
	for _, tc := range []struct {
		name, site, path, failed string
		body                     func(wi server.WireImage) interface{}
		counts                   func(st server.Stats) (errs, ok int64)
		after                    func(c *client.Client, p *simimg.Photo) error
	}{
		{
			name: "query", site: failpoint.ServerDispatchQuery, path: "/v1/query", failed: "query failed",
			body:   func(wi server.WireImage) interface{} { return server.QueryRequest{Image: wi, TopK: 5} },
			counts: func(st server.Stats) (int64, int64) { return st.QueryErrors, st.Queries },
			after: func(c *client.Client, p *simimg.Photo) error {
				_, err := c.Query(context.Background(), p.Img, 5)
				return err
			},
		},
		{
			name: "insert", site: failpoint.ServerDispatchInsert, path: "/v1/insert", failed: "insert failed",
			body: func(wi server.WireImage) interface{} {
				return server.InsertRequest{ID: 9_500_001, Image: wi}
			},
			counts: func(st server.Stats) (int64, int64) { return st.InsertErrors, st.Inserts },
			after: func(c *client.Client, p *simimg.Photo) error {
				return c.Insert(context.Background(), 9_500_001, p.Img)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, ds := baseEngine(t)
			s, hs, c := startServer(t, server.Config{Engine: eng, MaxInflight: 1, MaxQueue: 1})
			t.Cleanup(func() { failpoint.Disable(tc.site) })
			p := ds.FreshPhoto(9_500_001, 3)
			wi, err := server.EncodeImage(p.Img)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := json.Marshal(tc.body(wi))
			if err != nil {
				t.Fatal(err)
			}

			failpoint.Enable(tc.site, failpoint.Policy{Action: failpoint.Error})
			resp, err := hs.Client().Post(hs.URL+tc.path, "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			var er server.ErrorResponse
			_ = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity || !bytes.Contains([]byte(er.Error), []byte(tc.failed)) {
				t.Fatalf("injected error: status %d %q, want 422 %s", resp.StatusCode, er.Error, tc.failed)
			}
			if errs, ok := tc.counts(s.Stats()); errs != 1 || ok != 0 {
				t.Fatalf("errors/successes = %d/%d, want 1/0", errs, ok)
			}

			failpoint.Enable(tc.site, failpoint.Policy{Action: failpoint.Panic, Times: 1})
			if resp, err := hs.Client().Post(hs.URL+tc.path, "application/json", bytes.NewReader(payload)); err == nil {
				resp.Body.Close()
				t.Fatalf("panicking request answered with status %d", resp.StatusCode)
			}
			if err := tc.after(c, p); err != nil {
				t.Fatalf("request after a recovered panic (slot leaked?): %v", err)
			}
		})
	}
}

// TestDrainRefusesAndFinalSnapshotIsIdentical exercises the graceful
// shutdown contract: requests in flight when the drain begins complete,
// new ones are refused, and a snapshot cut after the drain reloads into an
// engine that answers queries identically.
func TestDrainRefusesAndFinalSnapshotIsIdentical(t *testing.T) {
	eng, ds := baseEngine(t)
	s, hs, c := startServer(t, server.Config{Engine: eng})
	ctx := context.Background()

	// Mutate through the API so the final snapshot has acknowledged writes
	// to preserve.
	ins := ds.FreshPhoto(9_100_001, 11)
	if err := c.Insert(ctx, ins.ID, ins.Img); err != nil {
		t.Fatal(err)
	}

	qs, err := ds.Queries(6, 55)
	if err != nil {
		t.Fatal(err)
	}
	// In-flight load racing the drain.
	errs := make(chan error, len(qs))
	var wg sync.WaitGroup
	for _, q := range qs {
		wg.Add(1)
		go func(q workload.Query) {
			defer wg.Done()
			_, err := c.Query(ctx, q.Probe, 20)
			errs <- err
		}(q)
	}
	time.Sleep(3 * time.Millisecond)
	s.BeginDrain()
	wg.Wait()
	close(errs)
	for err := range errs {
		// Every pre-drain request either completed or was refused with the
		// drain error — never dropped on the floor or failed differently.
		if err != nil && !isDrainErr(err) {
			t.Fatalf("in-flight query failed: %v", err)
		}
	}

	// New work is refused; health checks fail.
	if _, err := c.Query(ctx, qs[0].Probe, 10); !isDrainErr(err) {
		t.Fatalf("post-drain query: %v, want draining refusal", err)
	}
	if err := c.Healthy(ctx); err == nil {
		t.Fatal("healthz still OK while draining")
	}
	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d while draining, want 503", resp.StatusCode)
	}

	// The drained server's engine snapshot reloads into an engine that
	// answers identically (including the post-boot insert).
	var snap bytes.Buffer
	if _, err := s.Engine().WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := core.ReadEngine(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Contains(ins.ID) {
		t.Fatal("final snapshot lost an acknowledged insert")
	}
	for qi, q := range qs {
		want, err := s.Engine().Query(q.Probe, 25)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Query(q.Probe, 25)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d vs %d results from final snapshot", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d differs from final snapshot", qi, i)
			}
		}
	}
}

func isDrainErr(err error) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte("draining"))
}

func TestHealthzAndBadRequests(t *testing.T) {
	eng, _ := baseEngine(t)
	_, hs, c := startServer(t, server.Config{Engine: eng})
	if err := c.Healthy(context.Background()); err != nil {
		t.Fatalf("Healthy: %v", err)
	}

	for _, tc := range []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"query GET", func() (*http.Response, error) {
			return hs.Client().Get(hs.URL + "/v1/query")
		}, http.StatusMethodNotAllowed},
		{"query bad json", func() (*http.Response, error) {
			return hs.Client().Post(hs.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{")))
		}, http.StatusBadRequest},
		{"query bad image", func() (*http.Response, error) {
			body, _ := json.Marshal(server.QueryRequest{Image: server.WireImage{W: 4, H: 4, Pix: "AAAA"}})
			return hs.Client().Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
		}, http.StatusBadRequest},
		{"restore garbage", func() (*http.Response, error) {
			return hs.Client().Post(hs.URL+"/v1/restore", "application/octet-stream", bytes.NewReader([]byte("junk")))
		}, http.StatusBadRequest},
		{"stats POST", func() (*http.Response, error) {
			return hs.Client().Post(hs.URL+"/v1/stats", "application/json", nil)
		}, http.StatusMethodNotAllowed},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var er server.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
			t.Errorf("%s: refusal body is not an ErrorResponse (%v)", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestBadRequestsDoNotLeakAdmission hammers a one-slot server with
// requests that fail after admission (malformed JSON bodies): each refusal
// must hand its slot back, or the follow-up legitimate query would starve.
func TestBadRequestsDoNotLeakAdmission(t *testing.T) {
	eng, ds := baseEngine(t)
	_, hs, c := startServer(t, server.Config{Engine: eng, MaxInflight: 1, MaxQueue: 1})
	for i := 0; i < 4; i++ {
		resp, err := hs.Client().Post(hs.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad json attempt %d: status %d, want %d", i, resp.StatusCode, http.StatusBadRequest)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Query(ctx, ds.Photos[0].Img, 5); err != nil {
		t.Fatalf("query after bad requests (leaked admission slot?): %v", err)
	}
}

func TestWireImageRoundTrip(t *testing.T) {
	eng, ds := baseEngine(t)
	_ = eng
	img := ds.Photos[0].Img
	wi, err := server.EncodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	back, err := server.DecodeImage(wi)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != img.W || back.H != img.H {
		t.Fatalf("dims %dx%d, want %dx%d", back.W, back.H, img.W, img.H)
	}
	for i := range img.Pix {
		if back.Pix[i] != img.Pix[i] {
			t.Fatalf("pixel %d: %v != %v (wire transport must be exact)", i, back.Pix[i], img.Pix[i])
		}
	}

	if _, err := server.DecodeImage(server.WireImage{W: -1, H: 4}); err == nil {
		t.Error("negative dimensions accepted")
	}
	if _, err := server.DecodeImage(server.WireImage{W: 1 << 20, H: 1 << 20, Pix: ""}); err == nil {
		t.Error("absurd dimensions accepted")
	}
	// W*H wrapping to 0 (2^32 squared, on 64-bit int) must not slip past the
	// pixel bound and pair up with an empty payload.
	big := int(uint64(1) << 32)
	if _, err := server.DecodeImage(server.WireImage{W: big, H: big, Pix: ""}); err == nil {
		t.Error("overflowing dimensions accepted")
	}
	wi.Pix = wi.Pix[:len(wi.Pix)/2]
	if _, err := server.DecodeImage(wi); err == nil {
		t.Error("short payload accepted")
	}
}

func TestStatsDocument(t *testing.T) {
	eng, ds := baseEngine(t)
	_, hs, c := startServer(t, server.Config{Engine: eng})
	ctx := context.Background()
	qs, err := ds.Queries(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if _, err := c.Query(ctx, q.Probe, 10); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if _, err := c.Snapshot(ctx, &snap); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 3 || st.Snapshots != 1 {
		t.Errorf("queries/snapshots = %d/%d, want 3/1", st.Queries, st.Snapshots)
	}
	if st.Photos != eng.Len() || st.IndexBytes <= 0 {
		t.Errorf("photos/index_bytes = %d/%d", st.Photos, st.IndexBytes)
	}
	if st.UptimeNs <= 0 {
		t.Error("uptime missing")
	}
	if st.Draining {
		t.Error("draining reported on a live server")
	}

	// The JSON document exposes the documented field names.
	resp, err := hs.Client().Get(fmt.Sprintf("%s/v1/stats", hs.URL))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, field := range []string{
		"queries", "admission_rejected", "queue_wait_mean_ns", "photos",
		"index_bytes", "draining", "uptime_ns",
	} {
		if _, ok := raw[field]; !ok {
			t.Errorf("stats JSON missing field %q", field)
		}
	}
}

// TestSnapshotSaveEndpoint covers POST /v1/snapshot/save: with a chunked
// generation store configured, a save returns the write's dedup report, a
// second save of the same index reuses every chunk, /v1/stats surfaces the
// store counters, and a store-less server answers 501.
func TestSnapshotSaveEndpoint(t *testing.T) {
	eng, _ := baseEngine(t)
	g := &store.Generations{
		Path:    filepath.Join(t.TempDir(), "index.fast"),
		Chunked: true,
		CDC:     chunk.Config{MinSize: 256, AvgSize: 1024, MaxSize: 8192, Normalization: 2},
	}
	_, hs, _ := startServer(t, server.Config{Engine: eng, Snapshots: g})

	save := func() store.WriteResult {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+"/v1/snapshot/save", "application/json", nil)
		if err != nil {
			t.Fatalf("save: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("save status %d", resp.StatusCode)
		}
		var res store.WriteResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("decoding save response: %v", err)
		}
		return res
	}

	first := save()
	if !first.Chunked || first.Chunks == 0 || first.ChunksNew == 0 {
		t.Fatalf("first save wrote no chunks: %+v", first)
	}
	second := save()
	if second.ChunksNew != 0 || second.ChunksReused != second.Chunks {
		t.Fatalf("identical re-save did not dedup fully: %+v", second)
	}
	if second.PhysicalBytes >= second.LogicalBytes {
		t.Fatalf("deduped save not cheaper than logical: %+v", second)
	}

	resp, err := hs.Client().Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SnapshotStore == nil {
		t.Fatal("stats missing snapshot_store")
	}
	if st.SnapshotStore.Snapshots != 2 || st.SnapshotStore.ChunksReused == 0 ||
		st.SnapshotStore.LiveChunks == 0 {
		t.Fatalf("snapshot_store counters wrong: %+v", st.SnapshotStore)
	}
	if st.Snapshots != 2 {
		t.Fatalf("serving snapshot counter = %d, want 2", st.Snapshots)
	}

	// The saved generations must actually be recoverable.
	var restored *core.Engine
	if _, err := g.Recover(func(path string, r io.Reader) error {
		e, err := core.ReadEngine(r)
		if err != nil {
			return err
		}
		restored = e
		return nil
	}); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if restored.Len() != eng.Len() {
		t.Fatalf("recovered Len %d, want %d", restored.Len(), eng.Len())
	}

	// A server without a persistent store refuses the endpoint.
	eng2, _ := baseEngine(t)
	_, hs2, _ := startServer(t, server.Config{Engine: eng2})
	resp2, err := hs2.Client().Post(hs2.URL+"/v1/snapshot/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotImplemented {
		t.Fatalf("store-less save status %d, want 501", resp2.StatusCode)
	}
}

// TestRefusedRestoreKeepsTheColdTier restores a snapshot whose LSH
// geometry differs from the served engine's cold tier. The restore must be
// refused with 400, and the served engine must keep both tiers: after a
// further insert a migrated photo is still found and the cold entry count
// is unchanged.
func TestRefusedRestoreKeepsTheColdTier(t *testing.T) {
	eng, ds := baseEngine(t)
	if _, err := eng.EnableColdTier(t.TempDir(), 0, 0); err != nil {
		t.Fatalf("EnableColdTier: %v", err)
	}
	if _, err := eng.MigrateCold(len(ds.Photos) / 2); err != nil {
		t.Fatalf("MigrateCold: %v", err)
	}
	var migrated *simimg.Photo
	for _, p := range ds.Photos {
		if _, hot := eng.SummaryOf(p.ID); !hot && eng.Contains(p.ID) {
			migrated = p
			break
		}
	}
	if migrated == nil {
		t.Fatal("no photo migrated")
	}
	s, hs, c := startServer(t, server.Config{Engine: eng})
	t.Cleanup(func() { s.Engine().CloseColdTier() })
	ctx := context.Background()
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}

	foreign := core.NewEngine(core.Config{LSH: lsh.MinHashParams{Bands: 8}})
	if _, err := foreign.Build(ds.Photos[:16]); err != nil {
		t.Fatalf("Build: %v", err)
	}
	var snap bytes.Buffer
	if _, err := foreign.WriteTo(&snap); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	resp, err := hs.Client().Post(hs.URL+"/v1/restore", "application/octet-stream", &snap)
	if err != nil {
		t.Fatalf("POST /v1/restore: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched restore answered %d, want 400", resp.StatusCode)
	}

	fresh := ds.FreshPhoto(700_000, 4)
	if err := c.Insert(ctx, fresh.ID, fresh.Img); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	res, err := c.Query(ctx, migrated.Img, 10)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	found := false
	for _, r := range res {
		found = found || r.ID == migrated.ID
	}
	if !found {
		t.Fatalf("migrated photo %d not found after the refused restore: %+v", migrated.ID, res)
	}
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if !after.TieredEnabled || after.TieredColdEntries != before.TieredColdEntries {
		t.Fatalf("tiered_cold_entries %d (enabled %v) after the refused restore, %d before",
			after.TieredColdEntries, after.TieredEnabled, before.TieredColdEntries)
	}
}
