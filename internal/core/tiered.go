package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/lsh"
	"github.com/fastrepro/fast/internal/tiered"
)

// The disk-resident cold tier.
//
// Everything the engine serves normally lives in RAM, which caps corpus
// size by heap. With a cold tier enabled the index becomes two tiers: the
// hot tier is the existing lock-free epoch-published view, untouched on its
// fast path, and the cold tier (internal/tiered) holds entries migrated out
// of RAM in an on-disk IVF layout — LSH band bucket → postings list of
// packed summaries — mmap'd read-only and scanned sequentially per probed
// bucket. Queries probe hot first and spill to the cold postings of the
// same band keys, so the union candidate set is exactly what an all-RAM
// engine over the union corpus would collect, the scores are the same
// integer Jaccard cardinalities (the hot tier tests stored positions
// against the probe's packed words, the cold tier pops counts over the
// packed words migration froze from those positions), and the final
// ranking goes through the same total-order comparator — a tiered engine
// answers byte-identically to the all-hot oracle (enforced by the property
// and crash-matrix tests).
//
// Migration protocol (MigrateCold, all under e.mu):
//
//  1. select the oldest live featured entries (slot order = insertion
//     order; featureless entries have no band keys and stay hot);
//  2. tiered.Store.Migrate writes + publishes a segment and the catalog
//     naming it (failpoints tiered/segment-write and
//     tiered/segment-publish bracket this);
//  3. failpoint tiered/migrate — a death here leaves the batch resident in
//     BOTH tiers: queries dedup dual-resident ids in the meantime, and
//     EnableColdTier reconciles at next open by finishing the hot removal;
//  4. remove the batch from the hot structures, bump the epoch, republish.
//
// Deletes against cold entries become catalog tombstones; the background
// compactor folds them away by rewriting the cold tier (CompactColdTier),
// which preserves answers exactly (same ids, same words, same keys).

// TieredStats is the cold-tier block of EngineStats, surfaced by /v1/stats
// as the tiered_* fields.
type TieredStats struct {
	Enabled             bool
	HotEntries          int // live entries resident in RAM
	ColdEntries         int // live entries served from disk (net of dual-resident crash debris)
	Segments            int
	Tombstones          int
	ColdDiskBytes       int64
	Migrations          int64
	Compactions         int64
	SpillProbes         int64 // cold buckets scanned by queries
	ColdPostingsScanned int64
	ColdBytesScanned    int64
	Watermark           int
}

// EnableColdTier opens (or initializes) the cold tier at dir and attaches
// it to a built engine. watermark > 0 starts the background compactor: when
// the hot tier grows past watermark live entries, the oldest are frozen
// into cold segments in batches of batch (0 means 256). Ids found resident
// in both tiers — debris of a migration that died between the cold publish
// and the hot removal — are reconciled by finishing the removal, since cold
// ownership is the durable side. Returns the stale files swept from dir.
func (e *Engine) EnableColdTier(dir string, watermark, batch int) ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.index == nil {
		return nil, errors.New("core: engine must be built before enabling the cold tier")
	}
	if e.cold != nil {
		return nil, errors.New("core: cold tier already enabled")
	}
	if batch <= 0 {
		batch = 256
	}
	cold, swept, err := tiered.Open(tiered.Options{
		Dir:    dir,
		M:      e.cfg.Summary.Bits,
		K:      e.cfg.Summary.K,
		Bands:  e.index.Params().Bands,
		SeedFP: e.index.SeedFingerprint(),
	})
	if err != nil {
		return nil, err
	}
	e.cold = cold
	e.coldWatermark, e.coldBatch = watermark, batch
	e.reconcileColdLocked()
	e.epoch.Add(1) // answers now cover the union corpus
	e.publishLocked()
	e.startCompactorLocked()
	// A snapshot-bootstrapped hot tier may already be over the watermark:
	// start draining now rather than waiting for the first insert.
	e.maybeKickColdLocked()
	return swept, nil
}

// AdoptColdTier transfers old's cold tier to e — the snapshot-restore hot
// swap: the restored engine takes over the open store (mappings and all, so
// in-flight queries against old keep scanning valid memory) instead of
// re-opening the directory. old's compactor is stopped first; e's starts
// under the carried-over watermark and batch size. A no-op when old has no
// cold tier.
func (e *Engine) AdoptColdTier(old *Engine) error {
	if old == nil {
		return nil
	}
	old.mu.Lock()
	cold := old.cold
	stop, done := old.coldStop, old.coldDone
	wm, batch := old.coldWatermark, old.coldBatch
	old.cold = nil
	old.coldStop, old.coldDone, old.coldKick = nil, nil, nil
	old.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if cold == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.index == nil {
		cold.Close()
		return errors.New("core: engine must be built before adopting a cold tier")
	}
	if e.cold != nil {
		cold.Close()
		return errors.New("core: cold tier already enabled")
	}
	if opts := cold.Options(); opts.M != e.cfg.Summary.Bits || opts.K != e.cfg.Summary.K ||
		opts.Bands != e.index.Params().Bands || opts.SeedFP != e.index.SeedFingerprint() {
		return fmt.Errorf("core: cold tier geometry does not match the restored engine")
	}
	e.cold = cold
	e.coldWatermark, e.coldBatch = wm, batch
	e.reconcileColdLocked()
	e.epoch.Add(1)
	e.publishLocked()
	e.startCompactorLocked()
	// A restored hot tier may exceed the watermark immediately (the
	// snapshot's corpus is independent of the adopted tier's history).
	e.maybeKickColdLocked()
	return nil
}

// CloseColdTier stops the compactor, detaches the cold tier and unmaps its
// segments. Callers must have drained queries first (the serving layer's
// shutdown path); after it returns the engine answers from the hot tier
// alone.
func (e *Engine) CloseColdTier() error {
	e.mu.Lock()
	cold := e.cold
	stop, done := e.coldStop, e.coldDone
	e.cold = nil
	e.coldStop, e.coldDone, e.coldKick = nil, nil, nil
	if cold != nil {
		e.epoch.Add(1)
		e.publishLocked()
	}
	e.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if cold == nil {
		return nil
	}
	return cold.Close()
}

// ColdStats returns the cold tier's counters (zero when disabled).
func (e *Engine) ColdStats() tiered.Stats {
	e.mu.RLock()
	cold := e.cold
	e.mu.RUnlock()
	if cold == nil {
		return tiered.Stats{}
	}
	return cold.Stats()
}

// reconcileColdLocked finishes interrupted migrations: any id the durable
// cold catalog owns is removed from the hot structures.
func (e *Engine) reconcileColdLocked() {
	ids := e.cold.AppendIDs(nil)
	dup := ids[:0]
	for i, r := range e.table.LookupBatch(ids, 1) {
		if r.Found {
			dup = append(dup, ids[i])
		}
	}
	if len(dup) == 0 {
		return
	}
	e.removeHotLocked(dup)
}

// removeHotLocked drops ids from the LSH index, the flat table and the entry
// storage (copy-on-write tombstones, one pass). Callers republish.
func (e *Engine) removeHotLocked(ids []uint64) {
	next := make([]entry, len(e.entries), cap(e.entries))
	copy(next, e.entries)
	for i, r := range e.table.LookupBatch(ids, 1) {
		if !r.Found {
			continue
		}
		sp := next[r.Value].summary
		if sp != nil && len(sp.Bits) > 0 {
			e.index.Delete(lsh.ItemID(ids[i]), sp.Bits)
		}
		e.table.Delete(ids[i])
		next[r.Value] = entry{}
	}
	e.entries = next
}

// startCompactorLocked launches the background compactor when a watermark
// is configured. Callers hold e.mu and have set e.cold.
func (e *Engine) startCompactorLocked() {
	if e.coldWatermark <= 0 {
		return
	}
	e.coldKick = make(chan struct{}, 1)
	e.coldStop = make(chan struct{})
	e.coldDone = make(chan struct{})
	go e.coldCompactor(e.cold, e.coldKick, e.coldStop, e.coldDone)
}

// maybeKickColdLocked nudges the compactor when the hot tier is over its
// watermark; non-blocking, so the ingest path never waits on migration.
func (e *Engine) maybeKickColdLocked() {
	if e.coldKick == nil || e.table.Len() <= e.coldWatermark {
		return
	}
	select {
	case e.coldKick <- struct{}{}:
	default:
	}
}

// coldCompactor is the background migration loop: on every kick it drains
// the hot tier down to the watermark in batches, then rewrites the cold
// tier if enough of its records are dead (tombstoned or superseded). It
// takes the store and channels as arguments so a concurrent Close/Adopt
// detaching them from the engine cannot race its loop.
func (e *Engine) coldCompactor(cold *tiered.Store, kick, stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-kick:
		}
		for {
			e.mu.RLock()
			hot, wm, batch := e.hotLenLocked(), e.coldWatermark, e.coldBatch
			e.mu.RUnlock()
			if hot <= wm {
				break
			}
			// Never drain below the watermark: the hot tier is the fast
			// path for the most recent entries, not a staging buffer.
			if over := hot - wm; over < batch {
				batch = over
			}
			n, err := e.MigrateCold(batch)
			if n == 0 || err != nil {
				break
			}
			select {
			case <-stop:
				return
			default:
			}
		}
		// Rewrite when over half the on-disk records score nothing.
		if cold.DeadFraction() > 0.5 {
			e.CompactColdTier()
		}
	}
}

// MigrateCold freezes up to max of the oldest live featured hot entries
// into a new cold segment and removes them from RAM. Returns how many
// entries moved. Featureless entries (empty summaries) have no band keys
// and stay hot forever; ids already cold (dual-resident crash debris) are
// skipped. Answers over the union corpus are unchanged: each entry is
// packed as it freezes, the packed words hold exactly its positions, and it
// lands in cold buckets keyed identically to the hot buckets it leaves.
func (e *Engine) MigrateCold(max int) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cold == nil {
		return 0, errors.New("core: cold tier not enabled")
	}
	if e.index == nil {
		return 0, errors.New("core: engine not built")
	}
	if max <= 0 {
		max = 256
	}
	batch := make([]tiered.Entry, 0, max)
	ids := make([]uint64, 0, max)
	for slot := 0; slot < len(e.entries) && len(batch) < max; slot++ {
		ent := &e.entries[slot]
		if ent.summary == nil || len(ent.summary.Bits) == 0 {
			continue
		}
		if e.cold.Contains(ent.id) {
			continue
		}
		keys, err := e.index.AppendBandKeys(nil, ent.summary.Bits)
		if err != nil {
			return 0, fmt.Errorf("core: migrating photo %d: %w", ent.id, err)
		}
		batch = append(batch, tiered.Entry{ID: ent.id, Words: ent.summary.Packed(), Keys: keys})
		ids = append(ids, ent.id)
	}
	if len(batch) == 0 {
		return 0, nil
	}
	if err := e.cold.Migrate(batch); err != nil {
		return 0, err
	}
	// The batch is durably cold from here on. A death before the hot
	// removal below (the tiered/migrate site) leaves it dual-resident:
	// queries dedup it in the meantime and the next EnableColdTier
	// reconciles by finishing exactly this removal.
	if err := failpoint.Eval(failpoint.TieredMigrate); err != nil {
		return 0, fmt.Errorf("core: finishing migration: %w", err)
	}
	e.removeHotLocked(ids)
	e.epoch.Add(1)
	e.publishLocked()
	return len(batch), nil
}

// CompactColdTier rewrites the cold tier as a single segment holding
// exactly the live cold entries, folding away tombstones and records
// superseded by later migrations. Words are carried over verbatim and band
// keys recomputed under the same hash family (the seed matrix is a pure
// function of the LSH params), so answers are byte-identical across the
// rewrite.
func (e *Engine) CompactColdTier() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cold == nil {
		return errors.New("core: cold tier not enabled")
	}
	cv := e.cold.View()
	ids := cv.AppendIDs(nil)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	batch := make([]tiered.Entry, 0, len(ids))
	scratch := make([]uint64, bloom.PackedWords(e.cfg.Summary.Bits))
	var bits []uint32
	for _, id := range ids {
		seg, rec, ok := cv.Lookup(id)
		if !ok {
			continue
		}
		words := append([]uint64(nil), seg.RecordWords(rec, scratch)...)
		bits = bloom.AppendBits(bits[:0], words)
		keys, err := e.index.AppendBandKeys(nil, bits)
		if err != nil {
			return fmt.Errorf("core: compacting cold photo %d: %w", id, err)
		}
		batch = append(batch, tiered.Entry{ID: id, Words: words, Keys: keys})
	}
	if err := e.cold.ReplaceAll(batch); err != nil {
		return err
	}
	e.epoch.Add(1) // conservative: cached results reference nothing stale, but cheap
	e.publishLocked()
	return nil
}

// appendCold scans every probed cold bucket — keys against every live
// segment — and appends one candidate per live, unseen posting that scores
// at least minScore against words, at weight·similarity. seen holds the
// hot candidates the caller already collected, so dual-resident ids and
// cross-bucket duplicates score exactly once; the owner check skips stale
// postings (tombstoned or superseded records). The probe's own spill
// passes weight 1 and no exclude set; group expansion passes the
// representative's probe score and the ids already in the result, which
// are skipped and extended. Scores are the same integer Jaccard
// cardinalities the hot path computes, here popcounted over packed words on
// both sides. The scan is counted once, through coldStore's spill counters
// (non-empty buckets probed, postings walked, bytes touched). No closures,
// no allocations beyond dst growth.
func appendCold(cv *tiered.View, coldStore *tiered.Store, keys, words []uint64,
	weight, minScore float64, exclude map[uint64]bool, seen map[lsh.ItemID]struct{},
	dst []SearchResult, scratch []uint64) []SearchResult {
	var probes, recs, bytes int64
	segs := cv.Segments()
	for b, key := range keys {
		for si := range segs {
			p := segs[si].Bucket(b, key)
			n := p.Len()
			if n == 0 {
				continue
			}
			probes++
			recs += int64(n)
			bytes += p.Bytes()
			for i := 0; i < n; i++ {
				id := p.ID(i)
				if !cv.Owns(id, si) {
					continue
				}
				if _, dup := seen[lsh.ItemID(id)]; dup {
					continue
				}
				seen[lsh.ItemID(id)] = struct{}{}
				if exclude != nil && exclude[id] {
					continue
				}
				sim := bloom.JaccardPacked(words, p.Words(i, scratch))
				if sim < minScore {
					continue
				}
				if exclude != nil {
					exclude[id] = true
				}
				dst = append(dst, SearchResult{ID: id, Score: weight * sim})
			}
		}
	}
	coldStore.NoteSpill(probes, recs, bytes)
	return dst
}
