package cuckoo

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/fastrepro/fast/internal/failpoint"
)

// Flat is FAST's flat-structured cuckoo table with adjacent neighboring
// storage: a key may live in either of its two home cells or in any of the
// Neighborhood cells that follow a home (wrapping around the table). Lookups
// probe 2*(Neighborhood+1) cells — a constant — and the probes are
// independent, which is what exposes the query parallelism Figure 7
// exploits on multicore machines.
//
// Concurrency: a Flat is a single-writer structure with no locks of its
// own. Insert, Delete, Lookup (it updates the probe counters) and Snapshot
// need exclusive access; LookupBatch, Len, Stats and Range only read and
// may run concurrently with each other but not with a writer (the engine's
// mutex provides both). Readers that must not wait for writers use a
// Snapshot, which any number of goroutines may read without
// synchronization.
//
// The cell array is partitioned into sub-tables (shards). A key's shard is
// derived from a hash independent of its in-shard home buckets, so both
// homes, all neighbor cells and any kick chain stay within one shard. A
// shard is the copy-on-write granule of Snapshot: a mutation marks the one
// shard it touches, and the next Snapshot re-copies only marked shards.
type Flat struct {
	shards   []flatShard
	nu       int   // neighborhood width ν
	maxKicks int   // displacement budget per insert
	snap     *View // the last Snapshot; unmarked shards are shared with the next
}

// flatShard is one sub-table.
type flatShard struct {
	cells []KeyValue
	stash []KeyValue // overflow for items whose kick chain exhausted
	mask  uint64
	n     int
	rng   *rand.Rand
	stats Stats
	dirty bool // mutated since the last Snapshot
}

// DefaultNeighborhood is the ν used by the FAST prototype experiments.
const DefaultNeighborhood = 4

// The shard count is a function of the table size alone: one shard per
// flatShardMinCells cells, at most flatMaxShards. Below flatShardMinCells
// per shard, hashing imbalance across shards would push individual shards
// to materially higher load factors than the table-wide average (raising
// the rehash probability the flat design exists to suppress); above
// flatMaxShards the per-mutation copy is already a sixteenth of the table
// and more shards only add bookkeeping.
const (
	flatShardMinCells = 4096
	flatMaxShards     = 16
)

// NewFlat creates a flat-structured table with at least capacity cells.
// neighborhood < 0 is invalid; 0 degenerates to standard two-home cuckoo
// (useful for ablations). maxKicks 0 selects DefaultMaxKicks.
func NewFlat(capacity, neighborhood, maxKicks int, seed int64) (*Flat, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cuckoo: capacity must be positive, got %d", capacity)
	}
	if neighborhood < 0 {
		return nil, fmt.Errorf("cuckoo: neighborhood must be >= 0, got %d", neighborhood)
	}
	if maxKicks == 0 {
		maxKicks = DefaultMaxKicks
	}
	size := nextPow2(capacity)
	if neighborhood >= size {
		return nil, fmt.Errorf("cuckoo: neighborhood %d >= table size %d", neighborhood, size)
	}
	shards := min(max(size/flatShardMinCells, 1), flatMaxShards)
	// Each shard must keep more cells than the neighborhood width.
	for shards > 1 && size/shards <= neighborhood {
		shards >>= 1
	}
	t := &Flat{shards: make([]flatShard, shards), nu: neighborhood, maxKicks: maxKicks}
	for s := range t.shards {
		sh := &t.shards[s]
		sh.cells = make([]KeyValue, size/shards)
		sh.mask = uint64(size/shards - 1)
		sh.rng = rand.New(rand.NewSource(seed + int64(s)*0x9e3779b9))
	}
	return t, nil
}

// shardIndex returns the sub-table responsible for key among n (a power of
// two). The shard hash stream is independent of the in-shard home hashes
// (hashPair) and uses the high bits, so partitioning does not correlate
// with bucket placement.
func shardIndex(key uint64, n int) int {
	return int(mix(key^0x94d049bb133111eb) >> 48 & uint64(n-1))
}

// probe examines key's constant-width candidate set — each home followed by
// its ν neighbors — and then the stash. It returns the cell holding key
// (nil when absent) and the number of cells examined; more than 2(ν+1)
// means the hit is in the stash. Key 0 marks an empty cell and is never
// stored, so it misses without examining any. probe writes nothing, so it
// serves the live table and its snapshots alike.
func probe(cells, stash []KeyValue, mask uint64, nu int, key uint64) (*KeyValue, int) {
	if key == 0 {
		return nil, 0
	}
	b1, b2 := hashPair(key, mask)
	for d := 0; d <= nu; d++ {
		if c := &cells[(b1+uint64(d))&mask]; c.Key == key {
			return c, d + 1
		}
	}
	for d := 0; d <= nu; d++ {
		if c := &cells[(b2+uint64(d))&mask]; c.Key == key {
			return c, nu + d + 2
		}
	}
	for i := range stash {
		if stash[i].Key == key {
			return &stash[i], 2*(nu+1) + i + 1
		}
	}
	return nil, 2*(nu+1) + len(stash)
}

// Shards returns the number of copy-on-write sub-tables.
func (t *Flat) Shards() int { return len(t.shards) }

// Len returns the number of stored entries.
func (t *Flat) Len() int {
	n := 0
	for s := range t.shards {
		n += t.shards[s].n
	}
	return n
}

// Cap returns the number of cells.
func (t *Flat) Cap() int {
	return len(t.shards) * len(t.shards[0].cells)
}

// Stats returns cumulative statistics aggregated over all shards.
func (t *Flat) Stats() Stats {
	var total Stats
	for s := range t.shards {
		st := &t.shards[s].stats
		total.Inserts += st.Inserts
		total.Failures += st.Failures
		total.Kicks += st.Kicks
		total.Probes += st.Probes
		total.Lookups += st.Lookups
		total.NeighborHits += st.NeighborHits
		if st.MaxChain > total.MaxChain {
			total.MaxChain = st.MaxChain
		}
	}
	return total
}

// LoadFactor returns n / capacity.
func (t *Flat) LoadFactor() float64 {
	return float64(t.Len()) / float64(t.Cap())
}

// ProbeWidth returns the constant number of cells a lookup examines.
func (t *Flat) ProbeWidth() int { return 2 * (t.nu + 1) }

// candidateCells yields the cell indices an insertion of key may use within
// the shard: each home followed by its ν neighbors.
func (sh *flatShard) candidateCells(key uint64, nu int) []uint64 {
	b1, b2 := hashPair(key, sh.mask)
	cells := make([]uint64, 0, 2*(nu+1))
	for d := 0; d <= nu; d++ {
		cells = append(cells, (b1+uint64(d))&sh.mask)
	}
	for d := 0; d <= nu; d++ {
		cells = append(cells, (b2+uint64(d))&sh.mask)
	}
	return cells
}

// Lookup probes the constant-width candidate set and counts the work in
// Stats; LookupBatch is the read-only form.
func (t *Flat) Lookup(key uint64) (uint64, bool) {
	sh := &t.shards[shardIndex(key, len(t.shards))]
	kv, examined := probe(sh.cells, sh.stash, sh.mask, t.nu, key)
	sh.stats.Lookups++
	sh.stats.Probes += examined
	if kv == nil {
		return 0, false
	}
	return kv.Value, true
}

// Insert stores (key, value). The placement strategy is:
//  1. replace an existing entry for key;
//  2. use any empty cell in the candidate set (counted as a NeighborHit
//     when it is not one of the two homes);
//  3. otherwise evict a pseudo-random candidate and re-place it
//     recursively, up to maxKicks displacements.
func (t *Flat) Insert(key, value uint64) error {
	if key == 0 {
		return errors.New("cuckoo: key 0 is reserved")
	}
	sh := &t.shards[shardIndex(key, len(t.shards))]
	sh.dirty = true
	// Replace in place. (Only the caller's key can already be present: a
	// displaced victim is in hand, not in the table.)
	if kv, _ := probe(sh.cells, sh.stash, sh.mask, t.nu, key); kv != nil {
		kv.Value = value
		return nil
	}
	cur := KeyValue{Key: key, Value: value}
	chain := 0
	// Failpoint: simulate kick-chain exhaustion for a genuinely new key,
	// driving the stash/rehash machinery without needing a pathologically
	// full table.
	full := failpoint.Eval(failpoint.CuckooInsertFull) != nil
	for i := 0; i <= t.maxKicks && !full; i++ {
		cells := sh.candidateCells(cur.Key, t.nu)
		// Empty cell anywhere in the flat neighborhood.
		for ci, c := range cells {
			if sh.cells[c].Key == 0 {
				sh.cells[c] = cur
				sh.n++
				sh.stats.Inserts++
				if ci != 0 && ci != t.nu+1 {
					sh.stats.NeighborHits++
				}
				if chain > sh.stats.MaxChain {
					sh.stats.MaxChain = chain
				}
				return nil
			}
		}
		if i == t.maxKicks {
			break
		}
		// Evict a pseudo-random candidate and continue with the victim.
		victim := cells[sh.rng.Intn(len(cells))]
		cur, sh.cells[victim] = sh.cells[victim], cur
		chain++
		sh.stats.Kicks++
	}
	// Park the unplaced item in the stash: the insertion completes, but the
	// rehash event is still reported (and counted in Stats.Failures).
	sh.stash = append(sh.stash, cur)
	sh.n++
	sh.stats.Inserts++
	sh.stats.Failures++
	return fmt.Errorf("%w: key %d after %d kicks", ErrTableFull, cur.Key, t.maxKicks)
}

// Delete removes key if present.
func (t *Flat) Delete(key uint64) bool {
	sh := &t.shards[shardIndex(key, len(t.shards))]
	kv, examined := probe(sh.cells, sh.stash, sh.mask, t.nu, key)
	if kv == nil {
		return false
	}
	if examined > t.ProbeWidth() { // in the stash: swap-remove
		*kv = sh.stash[len(sh.stash)-1]
		sh.stash = sh.stash[:len(sh.stash)-1]
	} else {
		*kv = KeyValue{}
	}
	sh.n--
	sh.dirty = true
	return true
}

// LookupBatch resolves many keys using up to workers goroutines (0 means
// GOMAXPROCS; one worker runs on the calling goroutine). Results are
// positionally aligned with keys; missing keys yield (0, false). This is
// the multicore parallel-query path of Figure 7: every lookup touches a
// constant, independent set of cells and writes nothing shared, so
// throughput scales nearly linearly with cores.
func (t *Flat) LookupBatch(keys []uint64, workers int) []LookupResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(keys) {
		workers = len(keys)
	}
	results := make([]LookupResult, len(keys))
	lookup := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sh := &t.shards[shardIndex(keys[i], len(t.shards))]
			if kv, _ := probe(sh.cells, sh.stash, sh.mask, t.nu, keys[i]); kv != nil {
				results[i] = LookupResult{Value: kv.Value, Found: true}
			}
		}
	}
	if workers <= 1 {
		lookup(0, len(keys))
		return results
	}
	var wg sync.WaitGroup
	chunk := (len(keys) + workers - 1) / workers
	for lo := 0; lo < len(keys); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			lookup(lo, hi)
		}(lo, min(lo+chunk, len(keys)))
	}
	wg.Wait()
	return results
}

// LookupResult is one entry of a batched lookup.
type LookupResult struct {
	Value uint64
	Found bool
}
