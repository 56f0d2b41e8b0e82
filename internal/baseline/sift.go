// Package baseline implements the three comparison schemes of the paper's
// evaluation:
//
//   - SIFT (Lowe, ICCV'99): exhaustive 128-d descriptors, brute-force
//     point-by-point matching, features stored in an SQL-backed database on
//     disk. The accuracy reference (100% in Table III) and the slowest
//     scheme everywhere else.
//   - PCA-SIFT (Ke & Sukthankar, CVPR'04): PCA-compacted descriptors with
//     the same brute-force matching and SQL storage; roughly an order of
//     magnitude faster than SIFT, still disk-bound.
//   - RNPE (Liu et al., ICDE'13): real-time near-duplicate photo
//     elimination via error-prone geo tags in an R-tree; fast at low load,
//     O(log n) lookups and tag errors cap its accuracy.
//
// All three implement core.Pipeline so the harness can drive them
// interchangeably with the FAST engine.
package baseline

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/feature"
	"github.com/fastrepro/fast/internal/linalg"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/store"
)

// maxCorrelationSample bounds the real matching work done per insert when
// extrapolating the brute-force correlation-identification cost.
const maxCorrelationSample = 8

// siftRecord is one indexed photo's descriptor set.
type siftRecord struct {
	id    uint64
	descs []linalg.Vector
	bytes int64
}

// SIFT is the exact-matching baseline.
type SIFT struct {
	Detect feature.DetectConfig
	// Ratio is the match ratio-test threshold; 0 means the library default.
	Ratio float64
	// MinScore drops photos whose match fraction is below this; 0 means 0.05.
	MinScore float64

	records []siftRecord
	byID    map[uint64]int
	sql     *store.SQLStore
	sim     core.SimCost
}

// NewSIFT returns an empty SIFT pipeline backed by a 7200RPM SQL store.
func NewSIFT() *SIFT {
	sql, err := store.NewSQLStore(store.HDD7200(), 0)
	if err != nil {
		panic(err) // impossible: valid constants
	}
	return &SIFT{byID: make(map[uint64]int), sql: sql}
}

// Name implements core.Pipeline.
func (s *SIFT) Name() string { return "SIFT" }

func (s *SIFT) minScore() float64 {
	if s.MinScore == 0 {
		return 0.05
	}
	return s.MinScore
}

// Build implements core.Pipeline.
func (s *SIFT) Build(photos []*simimg.Photo) (core.BuildStats, error) {
	var st core.BuildStats
	if len(photos) == 0 {
		return st, errors.New("baseline: empty corpus")
	}
	s.records = s.records[:0]
	s.byID = make(map[uint64]int, len(photos))
	for _, p := range photos {
		bs, err := s.insert(p)
		if err != nil {
			return st, err
		}
		st.Photos++
		st.FeatureTime += bs.FeatureTime
		st.IndexTime += bs.IndexTime
		st.Descriptors += bs.Descriptors
	}
	return st, nil
}

// Insert implements core.Pipeline.
func (s *SIFT) Insert(p *simimg.Photo) error {
	_, err := s.insert(p)
	return err
}

func (s *SIFT) insert(p *simimg.Photo) (core.BuildStats, error) {
	var st core.BuildStats
	if _, dup := s.byID[p.ID]; dup {
		return st, fmt.Errorf("baseline: photo %d already indexed", p.ID)
	}
	t0 := time.Now()
	_, descs, err := feature.SIFTDescribeAll(p.Img, s.Detect)
	if err != nil {
		return st, fmt.Errorf("baseline: SIFT features for %d: %w", p.ID, err)
	}
	st.FeatureTime = time.Since(t0)
	st.Descriptors = len(descs)

	t1 := time.Now()
	bytes := int64(len(descs) * feature.SIFTDim * 8)
	// Identifying correlated images requires brute-force feature
	// comparisons against every stored photo (the paper's explanation for
	// SIFT's index-storage cost and its linear insertion latency in
	// Figure 5). Matching is executed for real against a bounded sample and
	// extrapolated to the full store, so the code path is exercised without
	// making builds quadratic.
	correlation := s.correlationCost(descs)
	s.sim.ComputeTime += correlation
	s.byID[p.ID] = len(s.records)
	s.records = append(s.records, siftRecord{id: p.ID, descs: descs, bytes: bytes})
	// The features and metadata land in the SQL database on disk.
	lat := s.sql.Put(p.ID, bytes)
	s.sim.StorageTime += lat
	s.sim.Accesses++
	s.sim.BytesMoved += bytes
	st.IndexTime = time.Since(t1) + lat + correlation
	st.Photos = 1
	return st, nil
}

// correlationCost measures descriptor matching against up to
// maxCorrelationSample stored records and extrapolates to the full store.
func (s *SIFT) correlationCost(descs []linalg.Vector) time.Duration {
	n := len(s.records)
	if n == 0 || len(descs) == 0 {
		return 0
	}
	sample := n
	if sample > maxCorrelationSample {
		sample = maxCorrelationSample
	}
	t0 := time.Now()
	for i := 0; i < sample; i++ {
		feature.SimilarityScore(descs, s.records[n-1-i].descs, s.Ratio)
	}
	real := time.Since(t0)
	return time.Duration(float64(real) * float64(n) / float64(sample))
}

// Search implements core.Pipeline: brute-force descriptor matching against
// every stored photo, charging one SQL fetch per photo (the "frequent I/O
// accesses to the low-speed disks" of Section IV-B2).
func (s *SIFT) Search(probe core.Probe, topK int) ([]core.SearchResult, error) {
	if topK <= 0 {
		return nil, fmt.Errorf("baseline: topK must be positive, got %d", topK)
	}
	if probe.Img == nil {
		return nil, errors.New("baseline: SIFT requires a probe image")
	}
	_, qdescs, err := feature.SIFTDescribeAll(probe.Img, s.Detect)
	if err != nil {
		return nil, err
	}
	results := make([]core.SearchResult, 0, len(s.records))
	for i := range s.records {
		rec := &s.records[i]
		_, _, lat := s.sql.Get(rec.id)
		s.sim.StorageTime += lat
		s.sim.Accesses++
		s.sim.BytesMoved += rec.bytes
		score := feature.SimilarityScore(qdescs, rec.descs, s.Ratio)
		if score >= s.minScore() {
			results = append(results, core.SearchResult{ID: rec.id, Score: score})
		}
	}
	sortResults(results)
	if len(results) > topK {
		results = results[:topK]
	}
	return results, nil
}

// IndexBytes implements core.Pipeline: the full descriptor footprint.
func (s *SIFT) IndexBytes() int64 {
	var total int64
	for i := range s.records {
		total += s.records[i].bytes
	}
	return total
}

// SimCost implements core.Pipeline.
func (s *SIFT) SimCost() core.SimCost { return s.sim }

// sortResults orders by descending score then ascending ID.
func sortResults(rs []core.SearchResult) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].ID < rs[j].ID
	})
}

var _ core.Pipeline = (*SIFT)(nil)
