// Package cache is the tiered read-path cache of the serving stack: a
// sharded, cache-line-padded LRU keyed by 128-bit content fingerprints,
// with singleflight collapsing so N concurrent misses on the same key run
// the expensive computation exactly once.
//
// The engine wires two tiers out of it (see internal/core):
//
//   - T1, the summary cache: raster fingerprint → Bloom summary. A summary
//     is a pure function of the pixels (for a fixed trained basis), so
//     entries never invalidate; a hit skips FE+SM — >99% of per-probe query
//     cost — entirely.
//   - T2, the result cache: (summary fingerprint, topK, view epoch) →
//     ranked results. Every index mutation publishes a view under a new
//     epoch, which is part of the key, so a stale entry can never be
//     served: it simply stops being addressable and ages out of the LRU.
//
// The cache itself knows nothing about either policy — it stores what it
// is given under the key it is given, bounded by capacity, and guarantees
// at-most-once computation per in-flight key.
package cache

import (
	"fmt"
	"runtime"
	"sync"
)

// node is one LRU entry, intrusive in the shard's recency list.
type node[V any] struct {
	key        Key
	val        V
	prev, next *node[V]
}

// call is one in-flight singleflight computation.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// shard is one independently locked slice of the key space. Counter fields
// are mutated under mu only; Stats sums them across shards.
type shard[V any] struct {
	mu       sync.Mutex
	items    map[Key]*node[V]
	inflight map[Key]*call[V]
	head     *node[V] // most recently used
	tail     *node[V] // least recently used; evicted first
	capacity int

	hits      int64
	misses    int64
	waits     int64 // singleflight waiters that shared a leader's compute
	evictions int64
}

// paddedShard isolates each shard on its own cache line(s) so the shard
// locks and counters of neighbouring shards never false-share.
type paddedShard[V any] struct {
	shard[V]
	_ [64]byte
}

// Cache is a sharded LRU with per-key singleflight. The zero value is not
// usable; construct with New. A nil *Cache is a valid "disabled" cache
// (GetOrCompute always computes, Stats is zero), which lets callers keep one
// code path for cache-on and cache-off.
type Cache[V any] struct {
	shards []paddedShard[V]
	mask   uint64
}

// Stats is a point-in-time aggregate of the cache's counters.
type Stats struct {
	Hits      int64 // Get/GetOrCompute found a live entry
	Misses    int64 // lookups that fell through to a compute (or nothing)
	Waits     int64 // singleflight waiters that piggybacked on a leader
	Evictions int64 // entries dropped by the LRU bound
	Entries   int   // current live entries
	Capacity  int   // configured entry bound
}

// New returns a cache bounded at capacity entries, sharded across a
// power-of-two number of lock shards sized to the host's parallelism.
// capacity must be positive.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity must be positive, got %d", capacity))
	}
	shards := 1
	for shards < 2*runtime.GOMAXPROCS(0) && shards < 64 {
		shards <<= 1
	}
	// Never spread entries so thin a shard holds nothing.
	for shards > 1 && capacity/shards < 1 {
		shards >>= 1
	}
	c := &Cache[V]{shards: make([]paddedShard[V], shards), mask: uint64(shards - 1)}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		s := &c.shards[i].shard
		s.items = make(map[Key]*node[V])
		s.inflight = make(map[Key]*call[V])
		s.capacity = per
	}
	return c
}

// shardFor routes a key to its shard. The fingerprint is already mixed, so
// the low bits are uniform.
func (c *Cache[V]) shardFor(k Key) *shard[V] {
	return &c.shards[k.Lo&c.mask].shard
}

// GetOrCompute returns the cached value for k, computing and storing it via
// fn on a miss. Concurrent misses on the same key run fn once: the first
// caller computes (without holding the shard lock), the rest wait and share
// the outcome. Errors are returned, never stored. hit reports whether the
// value came from the cache without waiting on a compute.
func (c *Cache[V]) GetOrCompute(k Key, fn func() (V, error)) (v V, hit bool, err error) {
	if c == nil {
		v, err = fn()
		return v, false, err
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if n, ok := s.items[k]; ok {
		s.moveToFront(n)
		s.hits++
		v = n.val
		s.mu.Unlock()
		return v, true, nil
	}
	s.misses++
	if cl, ok := s.inflight[k]; ok {
		s.waits++
		s.mu.Unlock()
		<-cl.done
		return cl.val, false, cl.err
	}
	cl := &call[V]{done: make(chan struct{})}
	s.inflight[k] = cl
	s.mu.Unlock()

	s.lead(k, cl, fn)
	return cl.val, false, cl.err
}

// lead runs fn as the singleflight leader for k, publishing the outcome to
// waiters and releasing the in-flight slot even if fn panics — otherwise a
// panicking compute would strand every waiter forever. A successful value
// is stored in the same critical section that releases the slot, so a
// caller arriving in between finds the entry rather than starting a second
// compute.
func (s *shard[V]) lead(k Key, cl *call[V], fn func() (V, error)) {
	completed := false
	defer func() {
		if !completed {
			cl.err = fmt.Errorf("cache: compute for key %016x%016x panicked", k.Hi, k.Lo)
		}
		s.mu.Lock()
		if cl.err == nil {
			s.addLocked(k, cl.val)
		}
		delete(s.inflight, k)
		s.mu.Unlock()
		close(cl.done)
	}()
	cl.val, cl.err = fn()
	completed = true
}

// Stats sums the per-shard counters.
func (c *Cache[V]) Stats() Stats {
	var st Stats
	if c == nil {
		return st
	}
	for i := range c.shards {
		s := &c.shards[i].shard
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Waits += s.waits
		st.Evictions += s.evictions
		st.Entries += len(s.items)
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}

// --- shard internals (all called with s.mu held) ---

func (s *shard[V]) addLocked(k Key, v V) {
	if n, ok := s.items[k]; ok {
		n.val = v
		s.moveToFront(n)
		return
	}
	n := &node[V]{key: k, val: v}
	s.items[k] = n
	s.pushFront(n)
	for len(s.items) > s.capacity {
		cold := s.tail
		s.remove(cold)
		delete(s.items, cold.key)
		s.evictions++
	}
}

func (s *shard[V]) pushFront(n *node[V]) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *shard[V]) remove(n *node[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *shard[V]) moveToFront(n *node[V]) {
	if s.head == n {
		return
	}
	s.remove(n)
	s.pushFront(n)
}
