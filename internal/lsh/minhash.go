package lsh

import "fmt"

// MinHash is the Jaccard-space LSH family: the collision probability of a
// single min-wise hash equals the Jaccard similarity of the input sets
// exactly. The FAST engine defaults to this family for Semantic
// Aggregation.
//
// Why it exists alongside the paper's p-stable family: the paper feeds
// Bloom-filter bit vectors into floor((a·v+b)/ω) hashes. On our calibrated
// synthetic summaries the l2 gap between correlated and uncorrelated images
// is only ~1.45x, which the AND-OR construction (M=10, L=7) cannot amplify
// into a useful filter: the best achievable operating point retains 93% of
// correlated images while pruning only 24% of the corpus. The same
// summaries separated by Jaccard similarity (0.44 vs 0.10 on average) give
// MinHash banding a usable operating point (see MinHashParams for the
// default choice) — the behaviour the paper's evaluation attributes to its
// SA module. Both families are exercised by the ablation benchmarks.
//
// Concurrency: a MinHash is a single-writer structure with no locks of its
// own. Insert, Delete and Snapshot need exclusive access; Query, Stats and
// the other read-only methods may run concurrently with each other but not
// with a writer (the engine's mutex provides both). Readers that must not
// wait for writers use a Snapshot, which any number of goroutines may read
// without synchronization.
//
// Each band's bucket map is split into minhashShards maps selected by the
// high bits of the band key. A shard is the copy-on-write granule of
// Snapshot: a mutation marks the shards it touches, and the next Snapshot
// re-copies only those.
type MinHash struct {
	params MinHashParams
	seeds  [][]uint64            // [band][row]
	shards []map[uint64][]ItemID // [band*minhashShards + shard]
	dirty  []bool                // parallel to shards: mutated since the last Snapshot
	snap   *View                 // the last Snapshot; unmarked shards are shared with the next
}

// minhashShards is the number of copy-on-write shards per band (a power of
// two). More shards make each post-mutation copy smaller but add one small
// map per shard per band to the heap; 16 is where the ingest gain levels
// off on the repo benchmark while the heap cost stays under 1 %.
const minhashShards = 16

// MinHashParams configures a MinHash index.
type MinHashParams struct {
	Bands int   // L: number of bands (hash tables); 0 means 7 (paper's L)
	Rows  int   // M: min-hashes per band; 0 means 1 (recall-first; see below)
	Seed  int64 // seed for the hash family
}

// The default of one row per band makes the per-band collision probability
// equal the Jaccard similarity itself: with L=7 bands a probe recalls a
// J=0.2 neighbor with probability 1-(1-0.2)^7 ≈ 0.79 while passing a J=0.05
// non-neighbor with probability ~0.30. The paper argues exactly this
// trade (Section III-C2): "reducing false negatives increases query
// accuracy and thus is more important than reducing false positives" —
// surviving false positives are removed by the summary-similarity
// verification step, at O(1) cost per candidate.

func (p MinHashParams) withDefaults() MinHashParams {
	if p.Bands == 0 {
		p.Bands = 7
	}
	if p.Rows == 0 {
		p.Rows = 1
	}
	return p
}

// NewMinHash builds an empty MinHash index.
func NewMinHash(params MinHashParams) (*MinHash, error) {
	params = params.withDefaults()
	if params.Bands < 1 || params.Rows < 1 {
		return nil, fmt.Errorf("lsh: invalid minhash params %+v", params)
	}
	mh := &MinHash{
		params: params,
		shards: make([]map[uint64][]ItemID, params.Bands*minhashShards),
		dirty:  make([]bool, params.Bands*minhashShards),
	}
	state := uint64(params.Seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for b := 0; b < params.Bands; b++ {
		rows := make([]uint64, params.Rows)
		for r := range rows {
			state = splitmix(state)
			rows[r] = state
		}
		mh.seeds = append(mh.seeds, rows)
	}
	for s := range mh.shards {
		mh.shards[s] = make(map[uint64][]ItemID)
	}
	return mh, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Params returns the effective parameters.
func (mh *MinHash) Params() MinHashParams { return mh.params }

// shardIndex locates the shard of a band's bucket key: the key's high bits,
// which the bucket maps' own hashing does not depend on.
func shardIndex(band int, key uint64) int {
	return band*minhashShards + int(key>>48&(minhashShards-1))
}

// signature computes the band key of an element set under a seed matrix.
func signature(seeds [][]uint64, band int, set []uint32) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	key := uint64(fnvOffset)
	for _, seed := range seeds[band] {
		minV := ^uint64(0)
		for _, el := range set {
			h := splitmix(uint64(el) ^ seed)
			if h < minV {
				minV = h
			}
		}
		for shift := 0; shift < 64; shift += 8 {
			key ^= (minV >> shift) & 0xff
			key *= fnvPrime
		}
	}
	return key
}

// appendQuery appends the distinct candidates colliding with set in any
// band, in first-seen order, deduplicating through seen. It is the one
// traversal behind both the live index and its snapshots.
func appendQuery(dst []ItemID, seen map[ItemID]struct{}, seeds [][]uint64,
	shards []map[uint64][]ItemID, set []uint32) []ItemID {
	for b := range seeds {
		k := signature(seeds, b, set)
		for _, id := range shards[shardIndex(b, k)][k] {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// Insert indexes the item's element set (e.g. the sparse Bloom summary's
// set-bit positions). Empty sets are rejected: they have no min-hash.
func (mh *MinHash) Insert(id ItemID, set []uint32) error {
	if len(set) == 0 {
		return fmt.Errorf("lsh: cannot minhash an empty set (item %d)", id)
	}
	for b := range mh.seeds {
		k := signature(mh.seeds, b, set)
		s := shardIndex(b, k)
		mh.shards[s][k] = append(mh.shards[s][k], id)
		mh.dirty[s] = true
	}
	return nil
}

// Query returns the distinct candidates colliding with the set in any band,
// in first-seen order.
func (mh *MinHash) Query(set []uint32) ([]ItemID, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("lsh: cannot minhash an empty set")
	}
	return appendQuery(nil, make(map[ItemID]struct{}), mh.seeds, mh.shards, set), nil
}

// Stats aggregates bucket occupancy across bands.
func (mh *MinHash) Stats() BucketStats {
	var st BucketStats
	for _, m := range mh.shards {
		for _, bucket := range m {
			st.Buckets++
			st.TotalRefs += len(bucket)
			if len(bucket) > st.MaxLen {
				st.MaxLen = len(bucket)
			}
		}
	}
	if st.Buckets > 0 {
		st.MeanLen = float64(st.TotalRefs) / float64(st.Buckets)
	}
	return st
}

// Shards returns the number of copy-on-write shards per band.
func (mh *MinHash) Shards() int { return minhashShards }

// MinHashCollisionProb returns the probability that two sets with Jaccard
// similarity j collide in at least one band: 1 - (1 - j^rows)^bands.
func MinHashCollisionProb(j float64, params MinHashParams) float64 {
	params = params.withDefaults()
	if j < 0 {
		j = 0
	} else if j > 1 {
		j = 1
	}
	pm := 1.0
	for i := 0; i < params.Rows; i++ {
		pm *= j
	}
	q := 1.0
	for i := 0; i < params.Bands; i++ {
		q *= 1 - pm
	}
	return 1 - q
}
