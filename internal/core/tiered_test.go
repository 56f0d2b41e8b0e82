package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/workload"
)

// pollDeadline bounds a stats-polling wait on the asynchronous compactor.
type pollDeadline struct {
	t     *testing.T
	until time.Time
}

func newDeadline(t *testing.T) *pollDeadline {
	return &pollDeadline{t: t, until: time.Now().Add(60 * time.Second)}
}

func (d *pollDeadline) tick(msg string) {
	d.t.Helper()
	if time.Now().After(d.until) {
		d.t.Fatal(msg)
	}
	time.Sleep(10 * time.Millisecond)
}

// probeSparses summarizes the query probes once through e's trained basis,
// so identity checks compare the search back half alone (both engines under
// test are built over the same corpus and therefore share the basis).
func probeSparses(t *testing.T, e *Engine, qs []workload.Query) []*bloom.Sparse {
	t.Helper()
	out := make([]*bloom.Sparse, len(qs))
	for i, q := range qs {
		f, err := e.Summarize(q.Probe)
		if err != nil {
			t.Fatalf("Summarize probe %d: %v", i, err)
		}
		out[i] = bloom.ToSparse(f)
	}
	return out
}

// assertTieredIdentical fails unless got answers every probe byte-identical
// to oracle at every scoring-worker count, and the two engines agree on
// Len, IDs, and Contains.
func assertTieredIdentical(t *testing.T, stage string, got, oracle *Engine, probes []*bloom.Sparse) {
	t.Helper()
	if g, w := got.Len(), oracle.Len(); g != w {
		t.Fatalf("%s: Len = %d, oracle %d", stage, g, w)
	}
	gids, wids := got.IDs(), oracle.IDs()
	if len(gids) != len(wids) {
		t.Fatalf("%s: IDs count %d, oracle %d", stage, len(gids), len(wids))
	}
	for i := range gids {
		if gids[i] != wids[i] {
			t.Fatalf("%s: IDs[%d] = %d, oracle %d", stage, i, gids[i], wids[i])
		}
		if !got.Contains(gids[i]) {
			t.Fatalf("%s: Contains(%d) = false for a live id", stage, gids[i])
		}
	}
	for pi, ps := range probes {
		want, err := oracle.QuerySummary(ps, 60, 1)
		if err != nil {
			t.Fatalf("%s: oracle probe %d: %v", stage, pi, err)
		}
		for _, workers := range []int{1, 4} {
			res, err := got.QuerySummary(ps, 60, workers)
			if err != nil {
				t.Fatalf("%s: probe %d (w=%d): %v", stage, pi, workers, err)
			}
			if len(res) != len(want) {
				t.Fatalf("%s: probe %d (w=%d): %d results, oracle %d", stage, pi, workers, len(res), len(want))
			}
			for i := range res {
				if res[i] != want[i] {
					t.Fatalf("%s: probe %d (w=%d) result %d drifted: %+v vs %+v",
						stage, pi, workers, i, res[i], want[i])
				}
			}
		}
	}
}

// TestTieredByteIdentityProperty drives a tiered engine and an all-hot
// oracle through the same random insert/delete stream while the tiered
// engine additionally migrates slices of its corpus to disk and compacts
// the cold tier; after every step the two must be indistinguishable: same
// Len/IDs/Contains, and byte-identical answers on every probe.
func TestTieredByteIdentityProperty(t *testing.T) {
	ds := testDatasetCached(t)
	tiered := builtEngine(t, ds)
	oracle := builtEngine(t, ds)
	swept, err := tiered.EnableColdTier(t.TempDir(), 0, 0) // manual migration
	if err != nil {
		t.Fatalf("EnableColdTier: %v", err)
	}
	if len(swept) != 0 {
		t.Fatalf("fresh cold dir swept %v", swept)
	}
	if _, err := tiered.EnableColdTier(t.TempDir(), 0, 0); err == nil {
		t.Fatal("double EnableColdTier should fail")
	}

	qs, err := ds.Queries(6, 321)
	if err != nil {
		t.Fatal(err)
	}
	probes := probeSparses(t, oracle, qs)
	assertTieredIdentical(t, "pre-migration", tiered, oracle, probes)

	rng := rand.New(rand.NewSource(99))
	live := append([]uint64(nil), oracle.IDs()...)
	nextID := uint64(7_000_000)
	for round := 0; round < 5; round++ {
		stage := fmt.Sprintf("round %d", round)

		// Migrate a random-sized slice of the hot tier (tiered engine only;
		// the corpus is unchanged, so the oracle needs no counterpart).
		if n, err := tiered.MigrateCold(10 + rng.Intn(30)); err != nil {
			t.Fatalf("%s: MigrateCold: %v", stage, err)
		} else if round == 0 && n == 0 {
			t.Fatalf("%s: first migration moved nothing", stage)
		}
		assertTieredIdentical(t, stage+" post-migrate", tiered, oracle, probes)

		// Insert fresh photos into both.
		for i := 0; i < 2; i++ {
			ph := ds.FreshPhoto(nextID, int64(round*100+i))
			if err := tiered.Insert(ph); err != nil {
				t.Fatalf("%s: tiered insert: %v", stage, err)
			}
			if err := oracle.Insert(ph); err != nil {
				t.Fatalf("%s: oracle insert: %v", stage, err)
			}
			live = append(live, nextID)
			nextID++
		}

		// Delete two random live ids from both — by construction one round
		// of victims usually spans both tiers.
		for i := 0; i < 2 && len(live) > 0; i++ {
			vi := rng.Intn(len(live))
			victim := live[vi]
			live = append(live[:vi], live[vi+1:]...)
			if err := tiered.Delete(victim); err != nil {
				t.Fatalf("%s: tiered delete %d: %v", stage, victim, err)
			}
			if err := oracle.Delete(victim); err != nil {
				t.Fatalf("%s: oracle delete %d: %v", stage, victim, err)
			}
			if tiered.Contains(victim) {
				t.Fatalf("%s: deleted id %d still visible", stage, victim)
			}
			if err := tiered.Delete(victim); err == nil {
				t.Fatalf("%s: double delete of %d should fail", stage, victim)
			}
		}
		assertTieredIdentical(t, stage+" post-churn", tiered, oracle, probes)

		// Compact the cold tier every other round, folding tombstones away.
		if round%2 == 1 {
			if err := tiered.CompactColdTier(); err != nil {
				t.Fatalf("%s: CompactColdTier: %v", stage, err)
			}
			cs := tiered.ColdStats()
			if cs.Tombstones != 0 {
				t.Fatalf("%s: %d tombstones survived compaction", stage, cs.Tombstones)
			}
			if cs.Segments > 1 {
				t.Fatalf("%s: %d segments after compaction", stage, cs.Segments)
			}
			assertTieredIdentical(t, stage+" post-compact", tiered, oracle, probes)
		}
	}

	// Duplicate inserts are rejected whichever tier holds the id.
	cs := tiered.ColdStats()
	if cs.Entries == 0 {
		t.Fatal("property run ended with an empty cold tier")
	}
	for _, p := range ds.Photos {
		if tiered.cold.Contains(p.ID) {
			if err := tiered.Insert(p); err == nil {
				t.Fatalf("insert of cold-resident photo %d should fail", p.ID)
			}
			break
		}
	}

	// Detach: answers fall back to the hot tier alone.
	if err := tiered.CloseColdTier(); err != nil {
		t.Fatalf("CloseColdTier: %v", err)
	}
	if tiered.Len() >= oracle.Len() {
		t.Fatal("closing the cold tier should drop the spilled entries from view")
	}
	if st := tiered.Stats(); st.Tiered.Enabled {
		t.Fatal("stats still report a cold tier after close")
	}
}

// TestSimCostCounts pins what Engine.SimCost counts on a tiered engine: a
// query's access and byte deltas do not depend on the scoring-worker count,
// they include exactly the cold tier's spill-probe and bytes-scanned deltas,
// and one stored summary is one access of its own size. The engine models
// no time.
func TestSimCostCounts(t *testing.T) {
	ds := testDatasetCached(t)
	eng := builtEngine(t, ds)
	if _, err := eng.EnableColdTier(t.TempDir(), 0, 0); err != nil {
		t.Fatalf("EnableColdTier: %v", err)
	}
	defer eng.CloseColdTier()
	if n, err := eng.MigrateCold(40); err != nil || n == 0 {
		t.Fatalf("MigrateCold: n=%d err=%v", n, err)
	}
	qs, err := ds.Queries(4, 23)
	if err != nil {
		t.Fatal(err)
	}
	probes := probeSparses(t, eng, qs)

	// counts is one reading of the exported counts, the cold tier's spill
	// counters and the engine's own hot-tier counters.
	type counts struct{ sim, cold, hot SimCost }
	read := func() counts {
		cs := eng.ColdStats()
		return counts{
			sim:  eng.SimCost(),
			cold: SimCost{Accesses: cs.SpillProbes, BytesMoved: cs.BytesScanned},
			hot:  SimCost{Accesses: eng.accesses.Load(), BytesMoved: eng.accessBytes.Load()},
		}
	}
	delta := func(a, b SimCost) SimCost {
		return SimCost{Accesses: a.Accesses - b.Accesses, BytesMoved: a.BytesMoved - b.BytesMoved}
	}

	var first SimCost
	for _, workers := range []int{1, 2, 8} {
		before := read()
		for _, ps := range probes {
			if _, err := eng.QuerySummary(ps, 60, workers); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
		after := read()
		d, cold, hot := delta(after.sim, before.sim), delta(after.cold, before.cold), delta(after.hot, before.hot)
		if cold.Accesses == 0 || hot.Accesses == 0 {
			t.Fatalf("workers=%d: the probes must touch both tiers (hot %+v, cold %+v)", workers, hot, cold)
		}
		if d.Accesses != hot.Accesses+cold.Accesses || d.BytesMoved != hot.BytesMoved+cold.BytesMoved {
			t.Errorf("workers=%d: delta %+v, want hot %+v + cold spill %+v", workers, d, hot, cold)
		}
		if after.sim.StorageTime != 0 || after.sim.ComputeTime != 0 {
			t.Errorf("workers=%d: the engine modeled time: %+v", workers, after.sim)
		}
		if workers == 1 {
			first = d
		} else if d != first {
			t.Errorf("workers=%d: delta %+v, workers=1 %+v", workers, d, first)
		}
	}

	var s *bloom.Sparse
	for _, id := range eng.IDs() {
		if sp, ok := eng.SummaryOf(id); ok {
			s = sp
			break
		}
	}
	before := eng.SimCost()
	if err := eng.InsertSummary(12_000_000, s); err != nil {
		t.Fatalf("InsertSummary: %v", err)
	}
	after := eng.SimCost()
	if a, b := after.Accesses-before.Accesses, after.BytesMoved-before.BytesMoved; a != 1 || b != int64(s.SizeBytes()) {
		t.Errorf("InsertSummary counted %d accesses, %d bytes; want 1, %d", a, b, s.SizeBytes())
	}
}

// TestQuerySummaryRejectsForeignGeometry pins that a probe no engine of this
// configuration could have produced is an error on every tier. Scoring one
// would give answers that depend on where entries live: no hot entry shares
// a foreign width, while a cold posting's packed comparison truncates to the
// shorter side and still scores.
func TestQuerySummaryRejectsForeignGeometry(t *testing.T) {
	ds := testDatasetCached(t)
	hot := builtEngine(t, ds)
	tiered := builtEngine(t, ds)
	if _, err := tiered.EnableColdTier(t.TempDir(), 0, 0); err != nil {
		t.Fatalf("EnableColdTier: %v", err)
	}
	defer tiered.CloseColdTier()
	if n, err := tiered.MigrateCold(len(ds.Photos) / 2); err != nil || n == 0 {
		t.Fatalf("MigrateCold: n=%d err=%v", n, err)
	}
	qs, err := ds.Queries(6, 321)
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range probeSparses(t, hot, qs) {
		for _, e := range []*Engine{hot, tiered} {
			if _, err := e.QuerySummary(ps, 20, 1); err != nil {
				t.Fatalf("probe %d: the engine's own summary was rejected: %v", i, err)
			}
		}
		var narrow []uint32 // the probe re-expressed at m = 4096
		for _, b := range ps.Bits {
			if b < 4096 {
				narrow = append(narrow, b)
			}
		}
		reversed := append([]uint32(nil), ps.Bits...)
		for l, r := 0, len(reversed)-1; l < r; l, r = l+1, r-1 {
			reversed[l], reversed[r] = reversed[r], reversed[l]
		}
		foreign := []struct {
			name string
			ps   *bloom.Sparse
		}{
			{"m=4096", &bloom.Sparse{M: 4096, K: ps.K, Bits: narrow}},
			{"empty at m=4096", &bloom.Sparse{M: 4096, K: ps.K}},
			{"k+1", &bloom.Sparse{M: ps.M, K: ps.K + 1, Bits: ps.Bits}},
			{"position m", &bloom.Sparse{M: ps.M, K: ps.K, Bits: append(append([]uint32(nil), ps.Bits...), ps.M)}},
			{"descending", &bloom.Sparse{M: ps.M, K: ps.K, Bits: reversed}},
		}
		for _, f := range foreign {
			for name, e := range map[string]*Engine{"all-RAM": hot, "tiered": tiered} {
				if res, err := e.QuerySummary(f.ps, 20, 1); err == nil {
					t.Errorf("probe %d %s on the %s engine: answered %d results, want an error", i, f.name, name, len(res))
				}
			}
		}
	}
}

// TestTieredCrashRecoveryMatrix kills a migration at each of the three
// tiered failpoint sites — inside the segment write, between segment and
// catalog publish, and between the cold publish and the hot removal — then
// simulates process death by restoring the pre-crash hot snapshot and
// re-attaching the same cold directory. Recovery must answer every probe
// byte-identical to the pre-crash engine, with no torn or orphaned files
// left in the cold directory.
func TestTieredCrashRecoveryMatrix(t *testing.T) {
	ds := testDatasetCached(t)
	baseline := builtEngine(t, ds)
	var snap bytes.Buffer
	if _, err := baseline.WriteTo(&snap); err != nil {
		t.Fatalf("snapshotting baseline: %v", err)
	}
	qs, err := ds.Queries(5, 87)
	if err != nil {
		t.Fatal(err)
	}
	probes := probeSparses(t, baseline, qs)

	cases := []struct {
		name       string
		site       string
		policy     failpoint.Policy
		panics     bool
		wantsSweep bool // crash leaves a durable orphan segment behind
	}{
		{"segment-write-torn", failpoint.TieredSegmentWrite, failpoint.Policy{Action: failpoint.PartialWrite, Bytes: 64}, false, false},
		{"segment-write-error", failpoint.TieredSegmentWrite, failpoint.Policy{Action: failpoint.Error}, false, false},
		{"segment-publish-error", failpoint.TieredSegmentPublish, failpoint.Policy{Action: failpoint.Error}, false, true},
		{"segment-publish-crash", failpoint.TieredSegmentPublish, failpoint.Policy{Action: failpoint.Panic}, true, true},
		{"migrate-error", failpoint.TieredMigrate, failpoint.Policy{Action: failpoint.Error}, false, false},
		{"migrate-crash", failpoint.TieredMigrate, failpoint.Policy{Action: failpoint.Panic}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(failpoint.Reset)
			failpoint.Reset()
			dir := t.TempDir()
			eng, err := ReadEngine(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatalf("restoring baseline: %v", err)
			}
			if _, err := eng.EnableColdTier(dir, 0, 0); err != nil {
				t.Fatalf("EnableColdTier: %v", err)
			}
			// A clean first migration populates the tier before the crash.
			if n, err := eng.MigrateCold(30); err != nil || n == 0 {
				t.Fatalf("seed migration: n=%d err=%v", n, err)
			}
			assertTieredIdentical(t, "pre-crash", eng, baseline, probes)

			failpoint.Enable(tc.site, tc.policy)
			func() {
				if tc.panics {
					defer func() {
						if recover() == nil {
							t.Error("panic policy did not fire")
						}
					}()
				}
				if _, err := eng.MigrateCold(20); err == nil && !tc.panics {
					t.Error("doomed migration succeeded — failpoint did not fire")
				}
			}()
			failpoint.Reset()

			// The in-process engine must still answer correctly even from a
			// dual-resident state (the migrate-site crash window).
			assertTieredIdentical(t, "post-crash in-process", eng, baseline, probes)

			// Process death: the hot snapshot predates the crash, the cold
			// catalog is whatever the interrupted migration durably
			// published. Re-attachment reconciles the two.
			recovered, err := ReadEngine(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatalf("restoring post-crash: %v", err)
			}
			swept, err := recovered.EnableColdTier(dir, 0, 0)
			if err != nil {
				t.Fatalf("re-attaching cold tier: %v", err)
			}
			if tc.wantsSweep && len(swept) == 0 {
				t.Error("crash left a durable orphan but recovery swept nothing")
			}
			assertTieredIdentical(t, "post-recovery", recovered, baseline, probes)

			// Nothing torn left behind.
			if m, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(m) != 0 {
				t.Fatalf("temp files leaked: %v", m)
			}
			if err := recovered.CloseColdTier(); err != nil {
				t.Fatalf("CloseColdTier: %v", err)
			}
		})
	}
}

// TestTieredChurnSoak runs the background compactor against concurrent
// queries, inserts, and deletes — the configuration the nightly race soak
// exercises with -race. Invariants checked live: results stay sorted and
// duplicate-free (an entry mid-migration must score exactly once), and the
// engine's bookkeeping stays consistent once the churn drains.
func TestTieredChurnSoak(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	ds := testDatasetCached(t)
	eng := builtEngine(t, ds)
	// Low watermark + small batches: migration runs continuously under the
	// churn instead of once at the end.
	if _, err := eng.EnableColdTier(t.TempDir(), 40, 16); err != nil {
		t.Fatalf("EnableColdTier: %v", err)
	}
	qs, err := ds.Queries(4, 55)
	if err != nil {
		t.Fatal(err)
	}
	probes := probeSparses(t, eng, qs)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ps := probes[(w+i)%len(probes)]
				res, err := eng.QuerySummary(ps, 50, 2)
				if err != nil {
					t.Errorf("querier %d: %v", w, err)
					return
				}
				seen := make(map[uint64]bool, len(res))
				for j, r := range res {
					if j > 0 && less(r, res[j-1]) {
						t.Errorf("querier %d: unsorted results at %d", w, j)
						return
					}
					if seen[r.ID] {
						t.Errorf("querier %d: duplicate id %d in results", w, r.ID)
						return
					}
					seen[r.ID] = true
				}
			}
		}(w)
	}

	nextID := uint64(9_000_000)
	var inserted []uint64
	for round := 0; round < rounds; round++ {
		for i := 0; i < 4; i++ {
			if err := eng.Insert(ds.FreshPhoto(nextID, int64(round*10+i))); err != nil {
				t.Fatalf("round %d: insert: %v", round, err)
			}
			inserted = append(inserted, nextID)
			nextID++
		}
		if round >= 1 {
			victim := inserted[0]
			inserted = inserted[1:]
			if err := eng.Delete(victim); err != nil {
				t.Fatalf("round %d: delete %d: %v", round, victim, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Drain the compactor by closing the tier; bookkeeping must reconcile.
	wantLen := eng.Len()
	st := eng.Stats()
	if !st.Tiered.Enabled {
		t.Fatal("cold tier not reported enabled")
	}
	if st.Tiered.Migrations == 0 || st.Tiered.ColdEntries == 0 {
		t.Fatalf("compactor never migrated under churn: %+v", st.Tiered)
	}
	if st.Tiered.HotEntries+st.Tiered.ColdEntries != wantLen {
		t.Fatalf("tier split %d+%d does not sum to Len %d",
			st.Tiered.HotEntries, st.Tiered.ColdEntries, wantLen)
	}
	if err := eng.CloseColdTier(); err != nil {
		t.Fatalf("CloseColdTier: %v", err)
	}
}

// TestTieredWatermarkCompactor checks the background path end to end: with
// a watermark configured, plain inserts alone must push entries to disk,
// and heavy deleting against the cold tier must trigger a rewrite that
// drops the dead records.
func TestTieredWatermarkCompactor(t *testing.T) {
	ds := testDatasetCached(t)
	eng := builtEngine(t, ds)
	oracle := builtEngine(t, ds)
	if _, err := eng.EnableColdTier(t.TempDir(), 50, 25); err != nil {
		t.Fatalf("EnableColdTier: %v", err)
	}
	qs, err := ds.Queries(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	probes := probeSparses(t, oracle, qs)

	// One insert over the watermark kicks the compactor; wait for it to
	// drain the hot tier by polling stats (the kick is asynchronous).
	ph := ds.FreshPhoto(8_000_000, 3)
	if err := eng.Insert(ph); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Insert(ph); err != nil {
		t.Fatal(err)
	}
	deadline := newDeadline(t)
	for {
		st := eng.Stats()
		if st.Tiered.HotEntries <= 50 && st.Tiered.ColdEntries > 0 {
			break
		}
		deadline.tick("compactor never drained the hot tier to its watermark")
	}
	assertTieredIdentical(t, "post-background-migration", eng, oracle, probes)

	// Delete most cold entries; the compactor's dead-fraction trigger must
	// eventually rewrite the tier down to its live records.
	cold := eng.cold.AppendIDs(nil)
	for i, id := range cold {
		if i%4 == 0 {
			continue // keep a quarter alive
		}
		if err := eng.Delete(id); err != nil {
			t.Fatalf("deleting cold %d: %v", id, err)
		}
		if err := oracle.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	// Nudge the loop with inserts until a compaction lands.
	nextID := uint64(8_100_000)
	for {
		st := eng.Stats()
		if st.Tiered.Compactions > 0 && st.Tiered.Tombstones == 0 {
			break
		}
		ph := ds.FreshPhoto(nextID, int64(nextID))
		if err := eng.Insert(ph); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Insert(ph); err != nil {
			t.Fatal(err)
		}
		nextID++
		deadline.tick("dead-fraction compaction never triggered")
	}
	assertTieredIdentical(t, "post-background-compaction", eng, oracle, probes)
	if err := eng.CloseColdTier(); err != nil {
		t.Fatal(err)
	}
}
