package store

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// KV is a latency-charging key-value store. Implementations record their
// access costs on a SimClock (or merely return them) so pipelines can
// account for storage time without doing real I/O.
type KV interface {
	// Put stores value bytes under key and returns the charged latency.
	Put(key uint64, size int64) time.Duration
	// Get fetches the value under key, returning its stored size, whether
	// it exists, and the charged latency.
	Get(key uint64) (int64, bool, time.Duration)
	// Len returns the number of stored records.
	Len() int
	// TotalBytes returns the sum of stored record sizes.
	TotalBytes() int64
}

// MemStore is an in-memory KV with RAM-level access cost. FAST's summarized
// index lives here.
type MemStore struct {
	mu    sync.Mutex
	items map[uint64]int64
	total int64
	model DiskModel
}

// NewMemStore returns an empty memory store.
func NewMemStore() *MemStore {
	return &MemStore{items: make(map[uint64]int64), model: RAM()}
}

// Put stores the record size and charges RAM cost.
func (s *MemStore) Put(key uint64, size int64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.items[key]; ok {
		s.total -= old
	}
	s.items[key] = size
	s.total += size
	return s.model.RandomWrite(size)
}

// Get returns the record size and RAM cost.
func (s *MemStore) Get(key uint64) (int64, bool, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.items[key]
	if !ok {
		return 0, false, s.model.Seek
	}
	return size, true, s.model.RandomRead(size)
}

// Len returns the number of records.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// TotalBytes returns the stored byte total.
func (s *MemStore) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// SQLStore models the "SQL-based database" the SIFT and PCA-SIFT baselines
// store features and metadata in: records live on disk behind a B-tree-like
// index, so every access pays O(log n) random page reads plus the record
// transfer. This is the "frequent I/O accesses to the low-speed disks" the
// paper blames for the baselines' latency.
type SQLStore struct {
	mu       sync.Mutex
	items    map[uint64]int64
	total    int64
	disk     DiskModel
	pageSize int64
	// CacheHitRatio in [0,1) lets a fraction of index-page reads hit the
	// buffer pool for free; 0 models a cold cache.
	CacheHitRatio float64
}

// NewSQLStore returns a store backed by the given disk model. pageSize 0
// selects 8 KiB pages.
func NewSQLStore(disk DiskModel, pageSize int64) (*SQLStore, error) {
	if pageSize == 0 {
		pageSize = 8192
	}
	if pageSize < 0 {
		return nil, fmt.Errorf("store: negative page size %d", pageSize)
	}
	return &SQLStore{items: make(map[uint64]int64), disk: disk, pageSize: pageSize}, nil
}

// indexDepth returns the number of index pages a lookup traverses:
// ceil(log_fanout(n)) with a fan-out of ~256 keys per page, minimum 1.
func (s *SQLStore) indexDepth() int {
	n := len(s.items)
	if n <= 1 {
		return 1
	}
	d := int(math.Ceil(math.Log(float64(n)) / math.Log(256)))
	if d < 1 {
		d = 1
	}
	return d
}

// chargedPages returns the effective number of page reads after cache hits.
func (s *SQLStore) chargedPages(pages int) float64 {
	return float64(pages) * (1 - s.CacheHitRatio)
}

// Put inserts the record, paying index traversal plus record write.
func (s *SQLStore) Put(key uint64, size int64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := s.indexDepth()
	if old, ok := s.items[key]; ok {
		s.total -= old
	}
	s.items[key] = size
	s.total += size
	lat := time.Duration(s.chargedPages(depth) * float64(s.disk.RandomRead(s.pageSize)))
	return lat + s.disk.RandomWrite(size)
}

// Get fetches the record, paying index traversal plus record read.
func (s *SQLStore) Get(key uint64) (int64, bool, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := s.indexDepth()
	lat := time.Duration(s.chargedPages(depth) * float64(s.disk.RandomRead(s.pageSize)))
	size, ok := s.items[key]
	if !ok {
		return 0, false, lat
	}
	return size, true, lat + s.disk.RandomRead(size)
}

// Len returns the number of records.
func (s *SQLStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// TotalBytes returns the stored byte total.
func (s *SQLStore) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

var (
	_ KV = (*MemStore)(nil)
	_ KV = (*SQLStore)(nil)
)
