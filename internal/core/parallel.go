package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/cuckoo"
	"github.com/fastrepro/fast/internal/feature"
	"github.com/fastrepro/fast/internal/lsh"
	"github.com/fastrepro/fast/internal/simimg"
)

// The staged ingest pipeline.
//
// Feature extraction dominates index-construction cost (the paper's Figure 3
// split) and is embarrassingly parallel, but the SA+CHS back half must see
// photos in input order for the index to stay deterministic. runIngest
// therefore splits ingest into two stages connected by a bounded reorder
// ring:
//
//   - a pool of workers claims photo indexes from an atomic counter and runs
//     the read-only FE+SM front half (prepareRecovering) concurrently;
//   - the calling goroutine is the committer: it consumes prepared results
//     in strict input order, runs the caller's short SA+CHS store step and
//     adds the photo to the BuildStats, so index contents, entry slots,
//     error positions and counters are byte-identical to the sequential
//     path at every worker count.
//
// The ring holds at most window = 4*workers in-flight summaries: workers
// acquire a token before claiming an index and the committer returns the
// token after committing, which caps memory and guarantees each ring slot is
// drained before it is reused (item i-window commits before item i can
// claim a token).

// ingestSlot carries one prepared photo from the worker pool to the
// committer.
type ingestSlot struct {
	pr  prepared
	err error
}

// runIngest runs FE+SM for every photo against pca on a worker pool and
// hands each summary to store in strict input order on the calling
// goroutine. workers <= 0 means GOMAXPROCS; one worker runs fully inline.
// store sees the first in-order error (prep or store) and nothing after it;
// photos before the failing index are already stored when it returns, and
// the returned BuildStats counts exactly them.
func (e *Engine) runIngest(pca *feature.PCASIFT, photos []*simimg.Photo, workers int,
	store func(id uint64, sp *bloom.Sparse) error) (BuildStats, error) {

	var st BuildStats
	commit := func(i int, pr prepared) error {
		t0 := time.Now()
		if err := store(photos[i].ID, pr.sparse); err != nil {
			return err
		}
		st.IndexTime += time.Since(t0)
		st.Photos++
		st.Descriptors += pr.descs
		st.FeatureTime += pr.featureTime
		st.SummaryTime += pr.summaryTime
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(photos) {
		workers = len(photos)
	}
	if workers <= 1 {
		for i, p := range photos {
			pr, err := e.prepareRecovering(pca, p.Img)
			if err != nil {
				return st, fmt.Errorf("core: preparing photo %d: %w", p.ID, err)
			}
			if err := commit(i, pr); err != nil {
				return st, err
			}
		}
		return st, nil
	}

	window := 4 * workers
	if window > len(photos) {
		window = len(photos)
	}
	slots := make([]chan ingestSlot, window)
	for i := range slots {
		slots[i] = make(chan ingestSlot, 1)
	}
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	var (
		next  atomic.Int64
		abort atomic.Bool
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				<-tokens
				i := int(next.Add(1)) - 1
				if i >= len(photos) {
					tokens <- struct{}{} // hand back so sibling workers can exit
					return
				}
				if abort.Load() {
					slots[i%window] <- ingestSlot{}
					continue
				}
				pr, err := e.prepareRecovering(pca, photos[i].Img)
				slots[i%window] <- ingestSlot{pr: pr, err: err}
			}
		}()
	}

	var firstErr error
	for i := 0; i < len(photos); i++ {
		s := <-slots[i%window]
		if firstErr == nil {
			switch {
			case s.err != nil:
				firstErr = fmt.Errorf("core: preparing photo %d: %w", photos[i].ID, s.err)
				abort.Store(true)
			default:
				if err := commit(i, s.pr); err != nil {
					firstErr = err
					abort.Store(true)
				}
			}
		}
		tokens <- struct{}{}
	}
	wg.Wait()
	return st, firstErr
}

// InsertBatch adds many photos to a built index through the staged ingest
// pipeline: FE+SM runs across workers (0 means GOMAXPROCS) with no engine
// lock held, and the ordered committer stores each summary under a short
// write lock, so queries keep flowing between commits and the resulting
// index is identical to calling Insert sequentially in input order.
//
// On error the batch stops at the offending photo: everything before it is
// inserted and stays inserted, and the returned BuildStats counts only the
// committed prefix.
func (e *Engine) InsertBatch(photos []*simimg.Photo, workers int) (BuildStats, error) {
	if len(photos) == 0 {
		return BuildStats{}, nil
	}
	e.mu.RLock()
	pca := e.pcasift
	e.mu.RUnlock()
	if pca == nil {
		return BuildStats{}, errors.New("core: engine not built")
	}
	return e.runIngest(pca, photos, workers, func(id uint64, sp *bloom.Sparse) error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.storeLocked(id, sp); err != nil {
			return fmt.Errorf("core: inserting photo %d: %w", id, err)
		}
		e.publishLocked()
		return nil
	})
}

// prepareRecovering runs the read-only FE+SM stage for one photo,
// converting a panic (e.g. from a malformed image that slipped past
// upstream validation) into that photo's error. The stage may run on ingest
// worker goroutines where an unwinding panic has no caller to contain it
// and would take down the process instead of failing one photo.
func (e *Engine) prepareRecovering(pca *feature.PCASIFT, img *simimg.Image) (pr prepared, err error) {
	defer func() {
		if p := recover(); p != nil {
			pr, err = prepared{}, fmt.Errorf("core: ingest preparation panicked: %v", p)
		}
	}()
	return e.prepareSummary(pca, img)
}

// trainLocked fits the PCA basis on a deterministic corpus sample.
func (e *Engine) trainLocked(photos []*simimg.Photo) error {
	sampleN := e.cfg.TrainingSample
	if sampleN > len(photos) {
		sampleN = len(photos)
	}
	stride := len(photos) / sampleN
	if stride == 0 {
		stride = 1
	}
	training := make([]*simimg.Image, 0, sampleN)
	for i := 0; i < len(photos) && len(training) < sampleN; i += stride {
		training = append(training, photos[i].Img)
	}
	p, err := feature.TrainPCASIFT(training, e.cfg.Detect, e.cfg.PCADim)
	if err != nil {
		return fmt.Errorf("core: training PCA-SIFT: %w", err)
	}
	e.pcasift = p
	e.basisGen++ // memoized summaries from the old basis must never be reused
	return nil
}

// allocLocked sizes the LSH index and flat table for n photos.
func (e *Engine) allocLocked(n int) error {
	capacity := e.cfg.TableCapacity
	if capacity == 0 {
		capacity = 2 * n
		if capacity < 1024 {
			capacity = 1024
		}
	}
	var err error
	e.index, err = lsh.NewMinHash(e.cfg.LSH)
	if err != nil {
		return fmt.Errorf("core: building LSH index: %w", err)
	}
	e.table, err = e.newTable(capacity)
	if err != nil {
		return fmt.Errorf("core: building cuckoo table: %w", err)
	}
	// A fresh slice, not entries[:0]: the backing array may be shared with a
	// published read view, and a rebuild must never overwrite slots a
	// lock-free query is still reading.
	e.entries = make([]entry, 0, n)
	return nil
}

// newTable is the engine's flat table geometry at the given capacity.
func (e *Engine) newTable(capacity int) (*cuckoo.Flat, error) {
	return cuckoo.NewFlat(capacity, e.cfg.Neighborhood, 0, 12345)
}

// ErrAlreadyIndexed is wrapped by every insert, restore and summary
// adoption of a photo id the engine already holds in either tier.
var ErrAlreadyIndexed = errors.New("core: photo already indexed")

// storeLocked is the one way into the hot tier: SA+CHS for a prepared
// summary, i.e. LSH insertion of the sparse summary's set-bit positions
// (images with no detectable features produce empty summaries; they are
// stored in the flat table but cannot be aggregated semantically), then
// flat cuckoo storage of the index record. Build, InsertBatch (and so
// Insert), InsertSummary and ReadEngine all store through it; callers
// publish afterwards.
func (e *Engine) storeLocked(id uint64, sparse *bloom.Sparse) error {
	if _, dup := e.slotLocked(id); dup || (e.cold != nil && e.cold.Contains(id)) {
		return ErrAlreadyIndexed
	}
	if len(sparse.Bits) > 0 {
		if err := e.index.Insert(lsh.ItemID(id), sparse.Bits); err != nil {
			return err
		}
	}
	slot := len(e.entries)
	e.entries = append(e.entries, entry{id: id, summary: sparse})
	if err := e.table.Insert(id, uint64(slot)); err != nil {
		// Roll the half-applied store back so every structure — LSH, entry
		// slice, table — agrees on the photo being absent.
		if len(sparse.Bits) > 0 {
			e.index.Delete(lsh.ItemID(id), sparse.Bits)
		}
		e.table.Delete(id) // clear any stashed copy left by the failed insert
		e.entries = e.entries[:slot]
		return fmt.Errorf("flat table: %w", err)
	}
	e.countAccesses(1, int64(sparse.SizeBytes()))
	e.maybeKickColdLocked()
	return nil
}
