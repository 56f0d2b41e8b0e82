package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/fastrepro/fast/internal/lsh"
	"github.com/fastrepro/fast/internal/simimg"
)

// The mutation protocol: every hot-tier change is one storeLocked or one
// removeHotLocked, and every mutation ends in one publishLocked, the only
// code that advances the epoch.

// TestEveryMutationAdvancesTheEpoch runs every mutation kind in turn and
// requires each to publish a view under a strictly larger epoch. A step
// that hands over to a new engine (a snapshot restore) must start that
// engine above 0, the value that means "unbuilt".
func TestEveryMutationAdvancesTheEpoch(t *testing.T) {
	ds := testDatasetCached(t)
	fresh := func(id uint64) *simimg.Photo { return ds.FreshPhoto(id, int64(id%89)) }
	var prev *Engine // the engine a restore replaced
	steps := []struct {
		name string
		run  func(e *Engine) (*Engine, error)
	}{
		{"build", func(e *Engine) (*Engine, error) {
			_, err := e.Build(ds.Photos)
			return e, err
		}},
		{"insert", func(e *Engine) (*Engine, error) { return e, e.Insert(fresh(950_000)) }},
		{"insert batch", func(e *Engine) (*Engine, error) {
			_, err := e.InsertBatch([]*simimg.Photo{fresh(950_001), fresh(950_002)}, 2)
			return e, err
		}},
		{"insert summary", func(e *Engine) (*Engine, error) {
			return e, e.InsertSummary(950_003, probeSparse(t, e, fresh(950_003).Img))
		}},
		{"delete hot", func(e *Engine) (*Engine, error) { return e, e.Delete(950_000) }},
		{"enable cold tier", func(e *Engine) (*Engine, error) {
			_, err := e.EnableColdTier(t.TempDir(), 0, 0)
			return e, err
		}},
		{"migrate cold", func(e *Engine) (*Engine, error) {
			_, err := e.MigrateCold(30)
			return e, err
		}},
		{"delete cold", func(e *Engine) (*Engine, error) { return e, e.Delete(e.cold.AppendIDs(nil)[0]) }},
		{"compact cold tier", func(e *Engine) (*Engine, error) { return e, e.CompactColdTier() }},
		{"read engine", func(e *Engine) (*Engine, error) {
			var buf bytes.Buffer
			if _, err := e.WriteTo(&buf); err != nil {
				return nil, err
			}
			prev = e
			return ReadEngine(&buf)
		}},
		{"adopt cold tier", func(e *Engine) (*Engine, error) { return e, e.AdoptColdTier(prev) }},
		{"close cold tier", func(e *Engine) (*Engine, error) { return e, e.CloseColdTier() }},
	}

	e := NewEngine(Config{})
	t.Cleanup(func() { e.CloseColdTier() })
	if got := e.PublishedEpoch(); got != 0 {
		t.Fatalf("unbuilt engine published epoch %d, want 0", got)
	}
	for _, st := range steps {
		before := e.PublishedEpoch()
		next, err := st.run(e)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		after := next.PublishedEpoch()
		switch {
		case next != e && after == 0:
			t.Fatalf("%s: the new engine published epoch 0", st.name)
		case next == e && after <= before:
			t.Fatalf("%s: published epoch %d, was %d", st.name, after, before)
		}
		e = next
	}
}

// TestMigrationReclaimsTombstones migrates three quarters of the corpus:
// each migration leaves a tombstone per moved entry, and the removals that
// leave dead slots outnumbering live entries reclaim them.
func TestMigrationReclaimsTombstones(t *testing.T) {
	ds := testDatasetCached(t)
	e := builtEngine(t, ds)
	if _, err := e.EnableColdTier(t.TempDir(), 0, 0); err != nil {
		t.Fatalf("EnableColdTier: %v", err)
	}
	defer e.CloseColdTier()
	n := len(ds.Photos)
	for moved := 0; moved < 3*n/4; {
		m, err := e.MigrateCold(min(16, 3*n/4-moved))
		if err != nil || m == 0 {
			t.Fatalf("MigrateCold = %d, %v after %d moved", m, err, moved)
		}
		moved += m
	}
	st := e.Stats()
	if st.Tiered.HotEntries != n-3*n/4 {
		t.Fatalf("%d hot entries after migrating %d of %d", st.Tiered.HotEntries, 3*n/4, n)
	}
	if st.Entries > 2*st.Tiered.HotEntries+1 {
		t.Fatalf("%d entry slots for %d hot entries: tombstones not reclaimed", st.Entries, st.Tiered.HotEntries)
	}
	oracle := rebuildOracle(t, e)
	for i := 0; i < 4; i++ {
		img := ds.Photos[i*29%n].Img
		assertViewMatchesRebuild(t, e, oracle, img, 20, fmt.Sprintf("after reclaim/probe %d", i))
	}
}

// TestAdoptColdTierRefusalKeepsTheOldTier offers a tiered engine's cold
// tier to engines that cannot take it, one unbuilt and one of another LSH
// geometry. Each refusal must leave the old engine serving both tiers,
// through later mutations too.
func TestAdoptColdTierRefusalKeepsTheOldTier(t *testing.T) {
	ds := testDatasetCached(t)
	old := builtEngine(t, ds)
	if _, err := old.EnableColdTier(t.TempDir(), 0, 0); err != nil {
		t.Fatalf("EnableColdTier: %v", err)
	}
	defer old.CloseColdTier()
	if _, err := old.MigrateCold(len(ds.Photos) / 2); err != nil {
		t.Fatalf("MigrateCold: %v", err)
	}
	migrated := old.cold.AppendIDs(nil)[0]
	n, cold := old.Len(), old.Stats().Tiered.ColdEntries

	foreign := NewEngine(Config{LSH: lsh.MinHashParams{Bands: 8}})
	if _, err := foreign.Build(ds.Photos[:24]); err != nil {
		t.Fatalf("Build: %v", err)
	}
	for name, e := range map[string]*Engine{"unbuilt": NewEngine(Config{}), "foreign geometry": foreign} {
		if err := e.AdoptColdTier(old); err == nil {
			t.Fatalf("%s: AdoptColdTier succeeded", name)
		}
		if st := old.Stats(); !st.Tiered.Enabled || st.Tiered.ColdEntries != cold || old.Len() != n {
			t.Fatalf("%s: after the refusal the old engine has %d photos, %d cold, tiered %v; want %d, %d, true",
				name, old.Len(), st.Tiered.ColdEntries, st.Tiered.Enabled, n, cold)
		}
	}
	if err := old.Insert(ds.FreshPhoto(960_000, 5)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	oracle := rebuildOracle(t, old)
	for i := 0; i < 4; i++ {
		img := ds.Photos[i*13%len(ds.Photos)].Img
		assertViewMatchesRebuild(t, old, oracle, img, 20, fmt.Sprintf("after refusals/probe %d", i))
	}
	if err := old.Delete(migrated); err != nil {
		t.Fatalf("Delete of migrated photo %d: %v", migrated, err)
	}
}
