package lsh

import "fmt"

// Delete removes item id from the index. The caller must supply the same
// vector the item was inserted with (LSH tables are content-addressed; the
// index stores no reverse mapping to keep its memory footprint at one
// reference per table). It reports whether the item was found in at least
// one table.
func (idx *Index) Delete(id ItemID, v []float64) (bool, error) {
	if len(v) != idx.params.Dim {
		return false, fmt.Errorf("lsh: vector dimension %d, want %d", len(v), idx.params.Dim)
	}
	removed := false
	for _, tb := range idx.tables {
		k := keyOf(tb.signature(v, idx.params.Omega))
		bucket := tb.buckets[k]
		for i, got := range bucket {
			if got == id {
				bucket[i] = bucket[len(bucket)-1]
				bucket = bucket[:len(bucket)-1]
				removed = true
				break
			}
		}
		if len(bucket) == 0 {
			delete(tb.buckets, k)
		} else {
			tb.buckets[k] = bucket
		}
	}
	if removed {
		idx.n--
	}
	return removed, nil
}

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
	if removed {
		mh.n--
	}
	return removed, nil
}
