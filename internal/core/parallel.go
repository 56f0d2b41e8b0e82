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
//     the read-only FE+SM front half (prepareSummary) concurrently;
//   - the calling goroutine is the committer: it consumes prepared results
//     in strict input order and runs the short SA+CHS store step, so index
//     contents, entry slots and error positions are byte-identical to the
//     sequential path at every worker count.
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

// runIngest streams every photo through prep on a worker pool and hands the
// results to commit in strict input order on the calling goroutine.
// workers <= 0 means GOMAXPROCS; one worker runs fully inline. commit sees
// the first in-order error (prep or commit) and nothing after it; photos
// before the failing index are already committed when it returns.
func runIngest(photos []*simimg.Photo, workers int,
	prep func(*simimg.Image) (prepared, error),
	commit func(int, prepared) error) error {

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(photos) {
		workers = len(photos)
	}
	if workers <= 1 {
		for i, p := range photos {
			pr, err := prep(p.Img)
			if err != nil {
				return fmt.Errorf("core: preparing photo %d: %w", p.ID, err)
			}
			if err := commit(i, pr); err != nil {
				return err
			}
		}
		return nil
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
				pr, err := prep(photos[i].Img)
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
	return firstErr
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
	var st BuildStats
	if len(photos) == 0 {
		return st, nil
	}
	e.mu.RLock()
	pca := e.pcasift
	e.mu.RUnlock()
	if pca == nil {
		return st, errors.New("core: engine not built")
	}

	err := runIngest(photos, workers,
		func(img *simimg.Image) (prepared, error) { return e.prepareRecovering(pca, img) },
		func(i int, pr prepared) error {
			t0 := time.Now()
			e.mu.Lock()
			err := e.storeLocked(photos[i].ID, pr.sparse)
			if err == nil {
				e.publishLocked()
			}
			e.mu.Unlock()
			if err != nil {
				return fmt.Errorf("core: inserting photo %d: %w", photos[i].ID, err)
			}
			st.IndexTime += time.Since(t0)
			st.Photos++
			st.Descriptors += pr.descs
			st.FeatureTime += pr.featureTime
			st.SummaryTime += pr.summaryTime
			return nil
		})
	return st, err
}

// prepareRecovering runs the read-only FE+SM stage for one photo,
// converting a panic (e.g. from a malformed image that slipped past
// upstream validation) into that photo's error. The stage runs on ingest
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
	e.table, err = cuckoo.NewFlat(capacity, e.cfg.Neighborhood, 0, 12345)
	if err != nil {
		return fmt.Errorf("core: building cuckoo table: %w", err)
	}
	// A fresh slice, not entries[:0]: the backing array may be shared with a
	// published read view, and a rebuild must never overwrite slots a
	// lock-free query is still reading.
	e.entries = make([]entry, 0, n)
	return nil
}

// storeLocked runs SA+CHS for a prepared summary: LSH insertion of the
// sparse summary's set-bit positions (images with no detectable features
// produce empty summaries; they are stored in the flat table but cannot be
// aggregated semantically), then flat cuckoo storage of the index record.
func (e *Engine) storeLocked(id uint64, sparse *bloom.Sparse) error {
	if _, dup := e.slotLocked(id); dup || (e.cold != nil && e.cold.Contains(id)) {
		return fmt.Errorf("core: photo %d already indexed", id)
	}
	if len(sparse.Bits) > 0 {
		if err := e.index.Insert(lsh.ItemID(id), sparse.Bits); err != nil {
			return err
		}
	}
	slot := len(e.entries)
	e.entries = append(e.entries, entry{id: id, summary: sparse, words: sparse.Packed()})
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
	e.epoch.Add(1) // retire result-cache entries computed before the insert
	e.countAccesses(1, int64(sparse.SizeBytes()))
	e.maybeKickColdLocked()
	return nil
}
