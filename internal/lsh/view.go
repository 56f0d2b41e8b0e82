package lsh

import (
	"fmt"
	"maps"
)

// View is an immutable snapshot of a MinHash index: the same band/bucket
// geometry, frozen. Nothing in it is written after Snapshot returns, so any
// number of goroutines may read it without synchronization.
//
// Sharing discipline: a View's bucket maps are copies of the live shard
// maps (or, for shards untouched since the previous Snapshot, that
// snapshot's copies), but the []ItemID bucket slices are shared with the
// live index. That is safe because the MinHash only ever *appends* to a
// bucket (writes at indexes beyond every frozen slice's length) or replaces
// it wholesale on delete (Delete is copy-on-write; see delete.go). No
// frozen slice element is ever overwritten in place.
type View struct {
	seeds  [][]uint64
	shards []map[uint64][]ItemID // [band*minhashShards + shard]
}

// Snapshot returns an immutable view of the index as it stands. Each shard
// mutated since the previous Snapshot is copied exactly once; every other
// shard is shared with that snapshot. Like Insert and Delete it needs
// exclusive access to the index.
func (mh *MinHash) Snapshot() *View {
	prev := mh.snap
	v := &View{seeds: mh.seeds, shards: make([]map[uint64][]ItemID, len(mh.shards))}
	for s, m := range mh.shards {
		if prev != nil && !mh.dirty[s] {
			v.shards[s] = prev.shards[s]
			continue
		}
		v.shards[s] = maps.Clone(m)
		mh.dirty[s] = false
	}
	mh.snap = v
	return v
}

// AppendQuery appends the distinct candidates colliding with the set in any
// band to dst, in first-seen order — the same traversal the live
// MinHash.Query performs. Candidates are deduplicated through seen (cleared
// by the callee when non-nil, allocated otherwise); pooling dst and seen
// across queries keeps the hot read path allocation-free.
func (v *View) AppendQuery(dst []ItemID, seen map[ItemID]struct{}, set []uint32) ([]ItemID, error) {
	if len(set) == 0 {
		return dst, fmt.Errorf("lsh: cannot minhash an empty set")
	}
	if seen == nil {
		seen = make(map[ItemID]struct{})
	} else {
		clear(seen)
	}
	return appendQuery(dst, seen, v.seeds, v.shards, set), nil
}
