package cuckoo

import "slices"

// View is an immutable snapshot of a Flat table. Every shard's cells and
// stash are deep copies, so a View observes one consistent placement and
// any number of goroutines may probe it without synchronization — the flat
// design's constant-width independent probes then run with no coordination
// at all.
type View struct {
	shards []*viewShard
	nu     int
}

// viewShard is one frozen sub-table. Shard pointers are shared across
// successive Views when the shard did not change (see Snapshot).
type viewShard struct {
	cells []KeyValue
	stash []KeyValue
	mask  uint64
}

// Snapshot returns an immutable view of the table as it stands. Each shard
// mutated since the previous Snapshot is copied exactly once; every other
// shard is shared with that snapshot. This is sound because a Flat
// operation never escapes its key's shard: both homes, all neighbor cells,
// the whole kick chain and the stash live inside one sub-table. Like
// Insert and Delete it needs exclusive access to the table.
func (t *Flat) Snapshot() *View {
	prev := t.snap
	v := &View{shards: make([]*viewShard, len(t.shards)), nu: t.nu}
	for s := range t.shards {
		sh := &t.shards[s]
		if prev != nil && !sh.dirty {
			v.shards[s] = prev.shards[s]
			continue
		}
		v.shards[s] = &viewShard{cells: slices.Clone(sh.cells), stash: slices.Clone(sh.stash), mask: sh.mask}
		sh.dirty = false
	}
	t.snap = v
	return v
}

// Lookup probes the constant-width candidate set plus the stash, exactly as
// the live table does, without any counter update.
func (v *View) Lookup(key uint64) (uint64, bool) {
	sh := v.shards[shardIndex(key, len(v.shards))]
	if kv, _ := probe(sh.cells, sh.stash, sh.mask, v.nu, key); kv != nil {
		return kv.Value, true
	}
	return 0, false
}
