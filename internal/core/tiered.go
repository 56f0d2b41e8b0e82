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
// summaries, each its sorted set-bit positions — mmap'd read-only and
// scanned sequentially per probed bucket. Queries probe hot first and spill
// to the cold postings of the same band keys, so the union candidate set
// is exactly what an all-RAM engine over the union corpus would collect,
// both tiers score with the same kernel (bloom.JaccardPackedSparse: stored
// positions tested against the probe's packed words), and the final
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
//  4. remove the batch from the hot structures (removeHotLocked) and
//     republish.
//
// Deletes against cold entries become catalog tombstones; the background
// compactor folds them away by rewriting the cold tier (CompactColdTier),
// which preserves answers exactly (same ids, same positions, same keys).

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
	if err := e.canAttachColdLocked(); err != nil {
		return nil, err
	}
	cold, swept, err := tiered.Open(e.coldOptionsLocked(dir))
	if err != nil {
		return nil, err
	}
	return swept, e.attachColdLocked(cold, watermark, batch)
}

// AdoptColdTier transfers old's cold tier to e — the snapshot-restore hot
// swap: the restored engine takes over the open store (mappings and all, so
// in-flight queries against old keep scanning valid memory) instead of
// re-opening the directory. e's compactor starts under old's watermark and
// batch size, and old's has stopped when AdoptColdTier returns (once
// detached, it can no longer migrate: its engine has no cold tier). A no-op
// when old has no cold tier.
//
// Every check runs before anything moves: if e is unbuilt, already tiered
// or of another geometry than the store, AdoptColdTier returns an error and
// old keeps its cold tier and compactor. old is never republished, so its
// in-flight and pre-swap queries keep their cold view. Lock order: e.mu
// before old.mu.
func (e *Engine) AdoptColdTier(old *Engine) error {
	if old == nil || old == e {
		return nil
	}
	e.mu.Lock()
	if err := e.canAttachColdLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	old.mu.Lock()
	if old.cold == nil {
		old.mu.Unlock()
		e.mu.Unlock()
		return nil
	}
	opts := old.cold.Options()
	if want := e.coldOptionsLocked(opts.Dir); opts.M != want.M || opts.K != want.K ||
		opts.Bands != want.Bands || opts.SeedFP != want.SeedFP {
		old.mu.Unlock()
		e.mu.Unlock()
		return errors.New("core: cold tier geometry does not match the restored engine")
	}
	wm, batch := old.coldWatermark, old.coldBatch
	cold, stopOldCompactor := old.detachColdLocked()
	old.mu.Unlock()
	err := e.attachColdLocked(cold, wm, batch)
	e.mu.Unlock()
	stopOldCompactor()
	return err
}

// CloseColdTier stops the compactor, detaches the cold tier and unmaps its
// segments. Callers must have drained queries first (the serving layer's
// shutdown path); after it returns the engine answers from the hot tier
// alone.
func (e *Engine) CloseColdTier() error {
	e.mu.Lock()
	cold, stopCompactor := e.detachColdLocked()
	if cold != nil {
		e.publishLocked()
	}
	e.mu.Unlock()
	stopCompactor()
	if cold == nil {
		return nil
	}
	return cold.Close()
}

// canAttachColdLocked reports why e cannot take a cold tier, if it cannot.
func (e *Engine) canAttachColdLocked() error {
	if e.index == nil {
		return errors.New("core: engine must be built before enabling the cold tier")
	}
	if e.cold != nil {
		return errors.New("core: cold tier already enabled")
	}
	return nil
}

// coldOptionsLocked is the cold-tier geometry e's summaries and band keys
// need, at dir.
func (e *Engine) coldOptionsLocked(dir string) tiered.Options {
	return tiered.Options{
		Dir:    dir,
		M:      e.cfg.Summary.Bits,
		K:      e.cfg.Summary.K,
		Bands:  e.index.Params().Bands,
		SeedFP: e.index.SeedFingerprint(),
	}
}

// attachColdLocked is the one way a cold tier joins an engine, shared by
// EnableColdTier and AdoptColdTier. It reconciles dual-resident ids,
// publishes a view over the union corpus, starts the compactor under
// watermark and batch (0 means 256), and kicks it at once: a
// snapshot-bootstrapped or restored hot tier may already be over the
// watermark. A reconciliation error is returned with the tier attached;
// queries dedup the ids it left dual-resident.
func (e *Engine) attachColdLocked(cold *tiered.Store, watermark, batch int) error {
	if batch <= 0 {
		batch = 256
	}
	e.cold = cold
	e.coldWatermark, e.coldBatch = watermark, batch
	err := e.reconcileColdLocked()
	e.publishLocked()
	e.startCompactorLocked()
	e.maybeKickColdLocked()
	return err
}

// detachColdLocked is the one way a cold tier leaves an engine, shared by
// CloseColdTier and AdoptColdTier. It does not publish. The returned
// function stops the compactor; call it without holding e.mu, which the
// compactor takes.
func (e *Engine) detachColdLocked() (*tiered.Store, func()) {
	cold, stop, done := e.cold, e.coldStop, e.coldDone
	e.cold = nil
	e.coldStop, e.coldDone, e.coldKick = nil, nil, nil
	return cold, func() {
		if stop != nil {
			close(stop)
			<-done
		}
	}
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
func (e *Engine) reconcileColdLocked() error {
	ids := e.cold.AppendIDs(nil)
	dup := ids[:0]
	for i, r := range e.table.LookupBatch(ids, 1) {
		if r.Found {
			dup = append(dup, ids[i])
		}
	}
	if len(dup) == 0 {
		return nil
	}
	if err := e.removeHotLocked(dup); err != nil {
		return fmt.Errorf("core: reconciling the cold tier: %w", err)
	}
	return nil
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
// skipped. Answers over the union corpus are unchanged: each entry freezes
// with exactly its positions and lands in cold buckets keyed identically to
// the hot buckets it leaves.
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
		batch = append(batch, tiered.Entry{ID: ent.id, Bits: ent.summary.Bits, Keys: keys})
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
	err := e.removeHotLocked(ids)
	e.publishLocked()
	if err != nil {
		return 0, fmt.Errorf("core: finishing migration: %w", err)
	}
	return len(batch), nil
}

// CompactColdTier rewrites the cold tier as a single segment holding
// exactly the live cold entries, folding away tombstones and records
// superseded by later migrations. Positions are carried over verbatim and
// band keys recomputed under the same hash family (the seed matrix is a
// pure function of the LSH params), so answers are byte-identical across
// the rewrite.
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
	for _, id := range ids {
		seg, off, ok := cv.Lookup(id)
		if !ok {
			continue
		}
		bits := seg.RecordBits(off, nil)
		keys, err := e.index.AppendBandKeys(nil, bits)
		if err != nil {
			return fmt.Errorf("core: compacting cold photo %d: %w", id, err)
		}
		batch = append(batch, tiered.Entry{ID: id, Bits: bits, Keys: keys})
	}
	if err := e.cold.ReplaceAll(batch); err != nil {
		return err
	}
	e.publishLocked()
	return nil
}

// appendCold scans every probed cold bucket — keys against every live
// segment — and appends one candidate per live, unseen posting that scores
// at least minScore against words (the packed probe, n set bits), at
// weight·similarity. seen holds the hot candidates the caller already
// collected, so dual-resident ids and cross-bucket duplicates score exactly
// once; the owner check skips stale postings (tombstoned or superseded
// records). The probe's own spill passes weight 1 and no exclude set; group
// expansion passes the representative's probe score and the ids already in
// the result, which are skipped and extended. A record's positions are
// decoded into bits and scored by the hot tier's kernel, so scores are the
// same integer Jaccard cardinalities. The scan is counted once, through
// coldStore's spill counters (non-empty buckets probed, postings walked,
// bytes touched). No closures, no allocations beyond dst and bits growth;
// returns the extended dst and the (possibly grown) bits scratch.
func appendCold(cv *tiered.View, coldStore *tiered.Store, keys, words []uint64, n int,
	weight float64, exclude map[uint64]bool, seen map[lsh.ItemID]struct{},
	dst []SearchResult, bits []uint32) ([]SearchResult, []uint32) {
	var probes, recs, bytes int64
	segs := cv.Segments()
	for b, key := range keys {
		for si := range segs {
			p := segs[si].Bucket(b, key)
			if p.Len() == 0 {
				continue
			}
			probes++
			recs += int64(p.Len())
			bytes += p.Bytes()
			for p.Next() {
				id := p.ID()
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
				bits = p.Bits(bits)
				sim := bloom.JaccardPackedSparse(words, n, bits)
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
	return dst, bits
}
