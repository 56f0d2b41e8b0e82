package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/simimg"
)

// The read-view invariant: Query, QueryUncached and QuerySummary (the
// published view at every worker count) answer byte-identically to a
// rebuild oracle — a fresh all-RAM engine fed the live (id, summary) set —
// through every mutation and around a snapshot round trip.

// rebuildOracle builds a fresh all-RAM engine from e's live (id, summary)
// set under e's trained basis and config, with both cache tiers and the
// cold tier off, through the same allocLocked + storeLocked + publishLocked
// steps Build takes after training. Cold-resident summaries come back from
// their packed words on disk (the exact inverse of packing). Answers are
// totally ordered (score desc, id asc), so the oracle's bucket and cell
// order cannot change them: any difference from e's published view is a
// view that missed a mutation, or a live structure that drifted from the
// entries it indexes.
func rebuildOracle(t *testing.T, e *Engine) *Engine {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	cfg := e.cfg
	cfg.SummaryCache, cfg.ResultCache = 0, 0
	o := NewEngine(cfg)
	o.pcasift, o.basisGen = e.pcasift, e.basisGen

	var live []entry
	for _, ent := range e.entries {
		if ent.summary != nil {
			live = append(live, ent)
		}
	}
	if e.cold != nil {
		cv := e.cold.View()
		scratch := make([]uint64, bloom.PackedWords(cfg.Summary.Bits))
		for _, id := range e.coldOnlyLocked() {
			seg, rec, ok := cv.Lookup(id)
			if !ok {
				t.Fatalf("rebuild oracle: cold id %d has no record", id)
			}
			bits := bloom.AppendBits(nil, seg.RecordWords(rec, scratch))
			live = append(live, entry{id: id, summary: &bloom.Sparse{M: cfg.Summary.Bits, K: cfg.Summary.K, Bits: bits}})
		}
	}
	if err := o.allocLocked(len(live)); err != nil {
		t.Fatalf("rebuild oracle: %v", err)
	}
	for _, ent := range live {
		if err := o.storeLocked(ent.id, ent.summary); err != nil {
			t.Fatalf("rebuild oracle: storing %d: %v", ent.id, err)
		}
	}
	o.publishLocked()
	return o
}

// assertViewMatchesRebuild compares every search entry point of e, the
// view path at several worker counts included, against oracle's answer for
// the same probe summary.
func assertViewMatchesRebuild(t *testing.T, e, oracle *Engine, img *simimg.Image, topK int, label string) {
	t.Helper()
	ps := probeSparse(t, e, img)
	want, err := oracle.QuerySummary(ps, topK, 1)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	got, err := e.Query(img, topK)
	if err != nil {
		t.Fatalf("%s: Query: %v", label, err)
	}
	sameResults(t, label+"/Query", got, want)
	got, err = e.QueryUncached(img, topK)
	if err != nil {
		t.Fatalf("%s: QueryUncached: %v", label, err)
	}
	sameResults(t, label+"/QueryUncached", got, want)
	for _, workers := range []int{1, 2, 8} {
		got, err := e.QuerySummary(ps, topK, workers)
		if err != nil {
			t.Fatalf("%s: QuerySummary(workers=%d): %v", label, workers, err)
		}
		sameResults(t, fmt.Sprintf("%s/workers=%d", label, workers), got, want)
	}
}

func TestViewMatchesRebuildPath(t *testing.T) {
	ds := testDatasetCached(t)
	e := builtEngine(t, ds)
	oracle := rebuildOracle(t, e)
	for i := 0; i < 12; i++ {
		assertViewMatchesRebuild(t, e, oracle, ds.Photos[i*7%len(ds.Photos)].Img, 20, fmt.Sprintf("probe %d", i))
	}
}

// TestViewMatchesRebuildThroughMutations runs every kind of mutator in turn.
// No mutator tells the publish step what it changed, so after each one the
// published view must answer exactly like a rebuild of the live set, and a
// view loaded before the step must still answer as it did (snapshot
// isolation).
func TestViewMatchesRebuildThroughMutations(t *testing.T) {
	ds := testDataset(t)
	tiered := builtEngine(t, ds)
	if _, err := tiered.EnableColdTier(t.TempDir(), 0, 0); err != nil {
		t.Fatalf("EnableColdTier: %v", err)
	}
	defer tiered.CloseColdTier()

	probes := []*simimg.Image{ds.Photos[3].Img, ds.Photos[40].Img, ds.Photos[77].Img}
	fresh := func(id uint64) *simimg.Photo { return ds.FreshPhoto(id, int64(id%89)) }
	insert := func(id uint64) func(*testing.T, *Engine) *Engine {
		return func(t *testing.T, e *Engine) *Engine {
			p := fresh(id)
			if err := e.Insert(p); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			probes = append(probes, p.Img) // from here on, also probe the inserted photo
			return e
		}
	}
	remove := func(id func(*Engine) uint64) func(*testing.T, *Engine) *Engine {
		return func(t *testing.T, e *Engine) *Engine {
			if err := e.Delete(id(e)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			return e
		}
	}
	hot := func(id uint64) func(*Engine) uint64 {
		return func(e *Engine) uint64 {
			if e.cold.Contains(id) {
				t.Fatalf("photo %d is not hot", id)
			}
			return id
		}
	}
	steps := []struct {
		name string
		run  func(*testing.T, *Engine) *Engine
	}{
		{"insert 0", insert(910_000)},
		{"insert 1", insert(910_001)},
		{"insert 2", insert(910_002)},
		{"insert 3", insert(910_003)},
		{"insert summary", func(t *testing.T, e *Engine) *Engine {
			p := fresh(915_000)
			if err := e.InsertSummary(p.ID, probeSparse(t, e, p.Img)); err != nil {
				t.Fatalf("InsertSummary: %v", err)
			}
			probes = append(probes, p.Img)
			return e
		}},
		{"failed insert", func(t *testing.T, e *Engine) *Engine {
			failpoint.Enable(failpoint.CuckooInsertFull, failpoint.Policy{Action: failpoint.Error, Times: 1})
			defer failpoint.Disable(failpoint.CuckooInsertFull)
			p := fresh(916_000)
			if err := e.Insert(p); err == nil {
				t.Fatal("Insert succeeded under cuckoo/insert-full")
			}
			if e.Contains(p.ID) {
				t.Fatal("a failed insert left the photo indexed")
			}
			return e
		}},
		// Point deletes, including a photo the first probe retrieves.
		{"delete hot 0", remove(hot(ds.Photos[3].ID))},
		{"delete hot 1", remove(hot(ds.Photos[10].ID))},
		{"delete hot 2", remove(hot(910_001))},
		// Id 0 is the flat table's empty-cell marker: it is never indexed,
		// and asking for it must not reach another photo's slot.
		{"reserved id 0", func(t *testing.T, e *Engine) *Engine {
			n := e.Len()
			if err := e.Delete(0); err == nil {
				t.Error("Delete(0) succeeded")
			}
			if e.Contains(0) {
				t.Error("Contains(0) = true")
			}
			if sp, ok := e.SummaryOf(0); ok {
				t.Errorf("SummaryOf(0) = %v, true", sp)
			}
			if got := e.Len(); got != n {
				t.Errorf("Len() = %d after Delete(0), want %d", got, n)
			}
			return e
		}},
		{"migrate cold", func(t *testing.T, e *Engine) *Engine {
			if n, err := e.MigrateCold(40); err != nil || n != 40 {
				t.Fatalf("MigrateCold = %d, %v", n, err)
			}
			return e
		}},
		{"delete cold", remove(func(e *Engine) uint64 { return e.cold.AppendIDs(nil)[0] })},
		// Compact rebuilds entry slots and the flat table.
		{"compact", func(t *testing.T, e *Engine) *Engine {
			if err := e.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			return e
		}},
		{"compact cold tier", func(t *testing.T, e *Engine) *Engine {
			if err := e.CompactColdTier(); err != nil {
				t.Fatalf("CompactColdTier: %v", err)
			}
			return e
		}},
		// Batch insert through the staged pipeline.
		{"insert batch", func(t *testing.T, e *Engine) *Engine {
			batch := make([]*simimg.Photo, 5)
			for i := range batch {
				batch[i] = fresh(uint64(920_000 + i))
			}
			if _, err := e.InsertBatch(batch, 3); err != nil {
				t.Fatalf("InsertBatch: %v", err)
			}
			return e
		}},
		// The restored engine carries the hot tier only; the steps after it
		// run on the restored engine.
		{"read engine", func(t *testing.T, e *Engine) *Engine {
			var buf bytes.Buffer
			if _, err := e.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			r, err := ReadEngine(&buf)
			if err != nil {
				t.Fatalf("ReadEngine: %v", err)
			}
			return r
		}},
		// Rebuild retrains the basis and swaps every structure.
		{"rebuild", func(t *testing.T, e *Engine) *Engine {
			if _, err := e.Build(ds.Photos); err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			return e
		}},
	}

	answers := func(e *Engine) [][]SearchResult {
		out := make([][]SearchResult, len(probes))
		for i, img := range probes {
			res, err := e.Query(img, 15)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			out[i] = res
		}
		return out
	}
	e := tiered
	oracle := rebuildOracle(t, e)
	for i, img := range probes {
		assertViewMatchesRebuild(t, e, oracle, img, 15, fmt.Sprintf("initial/probe %d", i))
	}
	for _, st := range steps {
		old := e.view.Load()
		before := answers(e)
		next := st.run(t, e)

		// Re-ask the view loaded before the step (caches are off, so Query
		// reads nothing but the published view).
		cur := e.view.Swap(old)
		after := answers(e)
		e.view.Store(cur)
		for i := range before {
			sameResults(t, fmt.Sprintf("pre-%s view/probe %d", st.name, i), after[i], before[i])
		}

		e = next
		oracle := rebuildOracle(t, e)
		for i, img := range probes {
			assertViewMatchesRebuild(t, e, oracle, img, 15, fmt.Sprintf("after %s/probe %d", st.name, i))
		}
	}
}

// TestViewMatchesRebuildAfterSnapshotRoundTrip verifies a restored engine
// publishes a view equivalent to a rebuild of its restored state.
func TestViewMatchesRebuildAfterSnapshotRoundTrip(t *testing.T) {
	ds := testDatasetCached(t)
	e := builtEngine(t, ds)
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	r, err := ReadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEngine: %v", err)
	}
	oracle := rebuildOracle(t, r)
	for i := 0; i < 6; i++ {
		img := ds.Photos[i*11%len(ds.Photos)].Img
		assertViewMatchesRebuild(t, r, oracle, img, 20, fmt.Sprintf("restored probe %d", i))
		// Restored and original engines agree with each other too.
		a, err := e.QueryUncached(img, 20)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.QueryUncached(img, 20)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("original vs restored %d", i), b, a)
	}
	if got, want := r.PublishedEpoch(), r.Epoch(); got != want {
		t.Errorf("restored published epoch %d, engine epoch %d", got, want)
	}
}

// TestViewEquivalenceUnderChurn races view-path queries at several worker
// counts against a mutator thread. Every answer must be *some* legal
// linearization; the test checks the strong form the engine promises — each
// answer is byte-identical to the rebuild oracle evaluated at a quiesced
// point before or after the churn window for the probes that no mutation
// touches, and for touched probes it checks invariants (no deleted id is
// ever returned after its delete is known quiesced).
func TestViewEquivalenceUnderChurn(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)

	// Probes that the churn never touches.
	stable := []*simimg.Image{ds.Photos[1].Img, ds.Photos[5].Img, ds.Photos[9].Img}
	stableSums := make([]*bloom.Sparse, len(stable))
	for i, img := range stable {
		stableSums[i] = probeSparse(t, e, img)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var queries atomic.Int64

	// Query workers hammer the view path at different worker counts.
	for _, workers := range []int{1, 2, 8} {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				res, err := e.QuerySummary(stableSums[i%len(stableSums)], 10, workers)
				if err != nil {
					t.Errorf("query(workers=%d): %v", workers, err)
					return
				}
				// Ranking invariant holds on every in-flight answer: no
				// later result may strictly precede its predecessor.
				for j := 1; j < len(res); j++ {
					if less(res[j], res[j-1]) {
						t.Errorf("unsorted results: %+v before %+v", res[j-1], res[j])
						return
					}
				}
				queries.Add(1)
			}
		}(workers)
	}

	// Mutator: insert/delete churn plus a snapshot write mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := uint64(930_000)
		for round := 0; round < 6; round++ {
			var ids []uint64
			for i := 0; i < 4; i++ {
				p := ds.FreshPhoto(next, int64(next%97))
				if err := e.Insert(p); err != nil {
					t.Errorf("churn insert: %v", err)
					return
				}
				ids = append(ids, next)
				next++
			}
			var sink bytes.Buffer
			if _, err := e.WriteTo(&sink); err != nil {
				t.Errorf("churn snapshot: %v", err)
				return
			}
			for _, id := range ids {
				if err := e.Delete(id); err != nil {
					t.Errorf("churn delete: %v", err)
					return
				}
			}
		}
		stop.Store(true)
	}()
	wg.Wait()

	if queries.Load() == 0 {
		t.Fatal("no queries completed during churn")
	}
	// Quiesced: the churn is net-zero, so every stable probe must match a
	// rebuild of the live set exactly again.
	oracle := rebuildOracle(t, e)
	for i, img := range stable {
		assertViewMatchesRebuild(t, e, oracle, img, 10, fmt.Sprintf("quiesced probe %d", i))
	}
}

// TestPublishedEpochAdvances pins the observable the serving layer exports:
// the published epoch is 0 before Build, advances with mutations, and
// matches the mutation epoch once quiesced.
func TestPublishedEpochAdvances(t *testing.T) {
	ds := testDatasetCached(t)
	e := NewEngine(Config{})
	if got := e.PublishedEpoch(); got != 0 {
		t.Fatalf("unbuilt published epoch = %d, want 0", got)
	}
	if _, err := e.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	after := e.PublishedEpoch()
	if after == 0 {
		t.Fatal("published epoch still 0 after Build")
	}
	if got, want := after, e.Epoch(); got != want {
		t.Fatalf("published epoch %d != mutation epoch %d at quiescence", got, want)
	}
	p := ds.FreshPhoto(940_000, 7)
	if err := e.Insert(p); err != nil {
		t.Fatal(err)
	}
	if got := e.PublishedEpoch(); got <= after {
		t.Fatalf("published epoch %d did not advance past %d after insert", got, after)
	}
	st := e.Stats()
	if st.Epoch != e.PublishedEpoch() {
		t.Fatalf("Stats().Epoch = %d, PublishedEpoch = %d", st.Epoch, e.PublishedEpoch())
	}
}

// TestPackedWordsMatchSparse cross-checks the scoring kernel searchView
// runs — stored positions tested against a probe's packed words — against
// the sparse merge on the real corpus summaries: identical integer
// cardinalities, hence identical float64 scores.
func TestPackedWordsMatchSparse(t *testing.T) {
	ds := testDatasetCached(t)
	e := builtEngine(t, ds)
	e.mu.RLock()
	entries := e.entries
	e.mu.RUnlock()
	if len(entries) < 2 {
		t.Fatal("corpus too small")
	}
	for i := 0; i < len(entries); i++ {
		a := entries[i]
		b := entries[(i*13+1)%len(entries)]
		if a.summary == nil || b.summary == nil {
			continue
		}
		want, err := bloom.JaccardSparse(a.summary, b.summary)
		if err != nil {
			t.Fatal(err)
		}
		got := bloom.JaccardPackedSparse(a.summary.Packed(), len(a.summary.Bits), b.summary.Bits)
		if got != want {
			t.Fatalf("entry %d vs %d: packed %v, sparse %v", i, (i*13+1)%len(entries), got, want)
		}
	}
}
