package core

import (
	"errors"
	"sync"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/cuckoo"
	"github.com/fastrepro/fast/internal/feature"
	"github.com/fastrepro/fast/internal/lsh"
	"github.com/fastrepro/fast/internal/tiered"
)

// The epoch-published read path.
//
// Queries never take Engine.mu. The engine follows RCU discipline:
//
//   - readView is an immutable snapshot of everything a query needs: the
//     trained basis, an lsh.View, a cuckoo.View, and the entry slice.
//     Nothing reachable from a published readView is ever written again.
//   - Mutators (Insert, InsertBatch's committer, Delete, Compact, Build,
//     migration, snapshot restore) serialize on Engine.mu, change the live
//     SA/CHS structures, and call publishLocked, which snapshots both and
//     publishes with a single atomic pointer store. The structures track
//     which of their shards a mutation touched, so a point mutation
//     re-copies one table shard and one shard per band and shares the rest
//     with the previous view, while a replaced structure (Build, Compact,
//     restore) has no previous snapshot and is copied whole. No mutator
//     tells publishLocked what it changed.
//   - Queries load the pointer once and run entirely against that
//     snapshot: no lock acquisition, no write to any shared structure, no
//     waiting on ingest. A query overlapping a mutation answers from the
//     pre-mutation state, which is a legal linearization.
//
// Memory reclamation is the garbage collector's: superseded views stay
// alive exactly as long as some in-flight query still holds the pointer,
// then become unreachable. No quiescent-state tracking is needed.
//
// On top of the stable snapshot the per-candidate cost is one bit test per
// stored position: a stored summary is only its sparse position list, the
// probe is packed once per query into pooled words, and scoring
// (bloom.JaccardPackedSparse) tests each stored position against those
// words instead of merging sorted position lists. The integer
// cardinalities are identical to the sparse merge, so scores are the
// summaries' exact Jaccard similarities.
//
// searchView is the engine's only search back half: Query, QuerySummary
// and QueryUncached all run it. view_test.go checks it against a
// rebuild oracle (a fresh all-RAM engine fed the live (id, summary) set)
// after every kind of mutation and at every worker count.

// readView is one immutable, atomically published index snapshot.
type readView struct {
	epoch    uint64           // index-mutation epoch this view materializes
	basisGen uint64           // retraining generation of pca (T1 cache keying)
	pca      *feature.PCASIFT // trained basis (read-only)
	index    *lsh.View        // SA snapshot
	table    *cuckoo.View     // CHS snapshot
	entries  []entry          // slot storage; shared, never written in place
	minScore float64          // cfg snapshot, so a view is self-contained
	expand   int              // cfg.GroupExpand

	// Cold-tier pairing. The tiered view is captured under the same e.mu
	// hold that froze the hot structures, so a query always sees a coherent
	// hot+cold split of the corpus: an entry mid-migration is visible in
	// exactly one tier of any single readView (or both around the
	// tiered/migrate failpoint window, where the seen-set dedup makes the
	// duplicate benign). All nil when the cold tier is disabled.
	cold      *tiered.View
	coldStore *tiered.Store // spill-counter sink only; never locked by queries
}

// publishLocked snapshots the engine's mutable structures into the next
// readView and publishes it. Callers hold e.mu (write) and call it after
// every mutation, whatever the mutation was: the SA and CHS structures know
// which of their shards changed since their last snapshot.
func (e *Engine) publishLocked() {
	if e.pcasift == nil || e.index == nil || e.table == nil {
		e.view.Store(nil)
		return
	}
	next := &readView{
		epoch:    e.epoch.Load(),
		basisGen: e.basisGen,
		pca:      e.pcasift,
		index:    e.index.Snapshot(),
		table:    e.table.Snapshot(),
		entries:  e.entries,
		minScore: e.cfg.MinScore,
		expand:   e.cfg.GroupExpand,
	}
	if e.cold != nil {
		next.cold = e.cold.View()
		next.coldStore = e.cold
	}
	e.view.Store(next)
}

// PublishedEpoch reports the epoch of the currently published read view
// (0 before the first Build). The serving layer surfaces it in /v1/stats so
// operators can watch the lock-free read path advance under ingest.
func (e *Engine) PublishedEpoch() uint64 {
	if v := e.view.Load(); v != nil {
		return v.epoch
	}
	return 0
}

// viewScratch recycles the per-query allocations of searchView: the
// candidate list and its dedup set, the packed probe words, the scoring
// slice, the group-expansion member set, the expansion re-query buffers and
// the packed words of the current expansion representative.
type viewScratch struct {
	ids      []lsh.ItemID
	seen     map[lsh.ItemID]struct{}
	words    []uint64
	results  []SearchResult
	inResult map[uint64]bool
	gids     []lsh.ItemID
	gseen    map[lsh.ItemID]struct{}
	rwords   []uint64

	// Cold-spill buffers, touched only when the view carries a cold tier:
	// the probe's band keys, the per-posting word scratch (used on hosts
	// without a zero-copy mmap word view), a cold representative's
	// reconstructed bits, and the representative's band keys.
	bandKeys []uint64
	cwords   []uint64
	gkeys    []uint64
	gbits    []uint32
}

var viewScratchPool = sync.Pool{New: func() interface{} { return new(viewScratch) }}

// searchView runs SA+CHS+ranking for a prepared probe summary against the
// published view — no engine lock, no shared-state writes beyond the access
// counters — and reports the epoch its answer is valid for.
func (e *Engine) searchView(probeSparse *bloom.Sparse, topK, workers int) ([]SearchResult, uint64, error) {
	v := e.view.Load()
	if v == nil {
		return nil, e.epoch.Load(), errors.New("core: engine not built")
	}

	sc := viewScratchPool.Get().(*viewScratch)
	putScratch := func() { viewScratchPool.Put(sc) }

	// The dedup map must exist before the call: AppendQuery allocates its
	// own map when handed nil and never returns it, so a nil map here would
	// mean a fresh allocation on every query — exactly the per-query
	// candidate-collection cost the scratch pool exists to recycle.
	if sc.seen == nil {
		sc.seen = make(map[lsh.ItemID]struct{})
	}
	ids, err := v.index.AppendQuery(sc.ids[:0], sc.seen, probeSparse.Bits)
	sc.ids = ids
	if err != nil {
		putScratch()
		return nil, v.epoch, err
	}
	// With a populated cold tier the probe may still hit spilled entries
	// even when every hot bucket came up empty.
	coldActive := v.cold != nil && v.cold.Len() > 0
	if len(ids) == 0 && !coldActive {
		putScratch()
		return nil, v.epoch, nil
	}

	sc.words = bloom.AppendPacked(sc.words, probeSparse.M, probeSparse.Bits)
	probeWords := sc.words
	// The probe and every stored summary passed checkSummary: one geometry,
	// and the probe's popcount is its position count.
	probeN := len(probeSparse.Bits)

	if cap(sc.results) < len(ids) {
		sc.results = make([]SearchResult, len(ids))
	}
	results := sc.results[:len(ids)]

	// Fetch and score fused, split across workers: each candidate is one
	// constant-width lock-free table probe plus one bit test per stored
	// position — independent work, no shared writes except each worker's
	// own result slots and one add of its access counts.
	nw := workers
	if nw <= 0 {
		nw = 1
	}
	if nw > len(ids) {
		nw = len(ids)
	}
	score := func(lo, hi int) {
		var n, bytes int64
		for i := lo; i < hi; i++ {
			slot, ok := v.table.Lookup(uint64(ids[i]))
			if !ok {
				results[i] = SearchResult{Score: -1}
				continue
			}
			ent := &v.entries[slot]
			// Count the summary fetch of every found candidate, scored or
			// not (the O(1) flat addressing: constant work each).
			n++
			bytes += int64(ent.summary.SizeBytes())
			results[i] = SearchResult{ID: ent.id, Score: bloom.JaccardPackedSparse(probeWords, probeN, ent.summary.Bits)}
		}
		e.countAccesses(n, bytes)
	}
	if nw <= 1 {
		score(0, len(ids))
	} else {
		var wg sync.WaitGroup
		chunk := (len(ids) + nw - 1) / nw
		for w := 0; w < nw; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > len(ids) {
				hi = len(ids)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				score(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}

	// Spill to the cold tier: scan the same band buckets on disk, skipping
	// anything the hot probe already collected (sc.seen holds the hot
	// candidate set), so the union candidate set — and with the shared
	// total-order sort below, the answer — matches an all-RAM engine over
	// the union corpus.
	if coldActive {
		sc.bandKeys, err = v.index.AppendBandKeys(sc.bandKeys[:0], probeSparse.Bits)
		if err != nil {
			putScratch()
			return nil, v.epoch, err
		}
		if cap(sc.cwords) < len(probeWords) {
			sc.cwords = make([]uint64, len(probeWords))
		}
		results = appendCold(v.cold, v.coldStore, sc.bandKeys, probeWords, 1, v.minScore, nil,
			sc.seen, results, sc.cwords[:len(probeWords)])
	}

	// Filter and rank.
	kept := results[:0]
	for _, r := range results {
		if r.Score >= v.minScore {
			kept = append(kept, r)
		}
	}
	sortResults(kept)

	// Group expansion against the same view: the strongest hits are
	// members of the probe's correlated group; their stored summaries are
	// clean representatives of that group, so re-querying with them
	// recovers groupmates the noisy probe missed (false-negative
	// suppression, Section III-C2).
	if v.expand > 0 {
		if sc.inResult == nil {
			sc.inResult = make(map[uint64]bool, len(kept))
		} else {
			clear(sc.inResult)
		}
		inResult := sc.inResult
		for _, r := range kept {
			inResult[r.ID] = true
		}
		expandFrom := v.expand
		if expandFrom > len(kept) {
			expandFrom = len(kept)
		}
		var mates int64 // admitted hot groupmates, one access each
		for h := 0; h < expandFrom; h++ {
			hit := kept[h]
			// Resolve the representative in both forms from whichever tier
			// holds it: a hot rep is packed into pooled words, a cold rep's
			// bits are reconstructed from its packed words (exact inverse of
			// packing), so the member re-probe uses the identical element
			// set the all-hot engine would.
			var repWords []uint64
			var repBits []uint32
			if slot, ok := v.table.Lookup(hit.ID); ok {
				rep := &v.entries[slot]
				if rep.summary == nil || len(rep.summary.Bits) == 0 {
					continue
				}
				sc.rwords = bloom.AppendPacked(sc.rwords, rep.summary.M, rep.summary.Bits)
				repWords, repBits = sc.rwords, rep.summary.Bits
			} else if coldActive {
				seg, rec, ok := v.cold.Lookup(hit.ID)
				if !ok {
					continue
				}
				if cap(sc.rwords) < len(probeWords) {
					sc.rwords = make([]uint64, len(probeWords))
				}
				repWords = seg.RecordWords(rec, sc.rwords[:len(probeWords)])
				sc.gbits = bloom.AppendBits(sc.gbits[:0], repWords)
				repBits = sc.gbits
				if len(repBits) == 0 {
					continue
				}
			} else {
				continue
			}
			if sc.gseen == nil {
				sc.gseen = make(map[lsh.ItemID]struct{})
			}
			gids, err := v.index.AppendQuery(sc.gids[:0], sc.gseen, repBits)
			sc.gids = gids
			if err != nil {
				continue
			}
			for _, gid := range gids {
				id := uint64(gid)
				if inResult[id] {
					continue
				}
				gslot, ok := v.table.Lookup(id)
				if !ok {
					continue
				}
				g := &v.entries[gslot]
				if g.summary == nil {
					continue
				}
				sim := bloom.JaccardPackedSparse(repWords, len(repBits), g.summary.Bits)
				if sim < v.minScore {
					continue
				}
				mates++
				inResult[id] = true
				kept = append(kept, SearchResult{ID: id, Score: hit.Score * sim})
			}
			// Cold groupmates: scan the rep's band buckets on disk. gseen
			// holds the hot members AppendQuery just collected, so each
			// member scores once no matter which tier holds it.
			if coldActive {
				sc.gkeys, err = v.index.AppendBandKeys(sc.gkeys[:0], repBits)
				if err != nil {
					continue
				}
				if cap(sc.cwords) < len(probeWords) {
					sc.cwords = make([]uint64, len(probeWords))
				}
				kept = appendCold(v.cold, v.coldStore, sc.gkeys, repWords, hit.Score, v.minScore, inResult,
					sc.gseen, kept, sc.cwords[:len(probeWords)])
			}
		}
		e.countAccesses(mates, 0)
		sortResults(kept)
	}

	if len(kept) > topK {
		kept = kept[:topK]
	}
	out := append([]SearchResult(nil), kept...)

	if cap(kept) > cap(sc.results) {
		sc.results = kept[:0]
	}
	putScratch()
	return out, v.epoch, nil
}
