package lsh

import "fmt"

// Delete removes item id from the MinHash index; set must be the element
// set it was inserted with. It reports whether the item was found in at
// least one band.
//
// The surviving bucket is rebuilt copy-on-write rather than compacted in
// place: Views (see view.go) share bucket slices with the live index, and
// an in-place swap-and-truncate would mutate elements a snapshot reader
// may be scanning. Appends stay in place (they only write past every
// frozen length); deletes allocate.
func (mh *MinHash) Delete(id ItemID, set []uint32) (bool, error) {
	if len(set) == 0 {
		return false, fmt.Errorf("lsh: cannot minhash an empty set (item %d)", id)
	}
	removed := false
	for b := range mh.seeds {
		k := signature(mh.seeds, b, set)
		s := shardIndex(b, k)
		bucket := mh.shards[s][k]
		for i, got := range bucket {
			if got != id {
				continue
			}
			if len(bucket) == 1 {
				delete(mh.shards[s], k)
			} else {
				next := make([]ItemID, 0, len(bucket)-1)
				next = append(next, bucket[:i]...)
				mh.shards[s][k] = append(next, bucket[i+1:]...)
			}
			mh.dirty[s] = true
			removed = true
			break
		}
	}
	return removed, nil
}
