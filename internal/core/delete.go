package core

import (
	"fmt"

	"github.com/fastrepro/fast/internal/cuckoo"
	"github.com/fastrepro/fast/internal/lsh"
)

// Delete removes a photo from the index: its LSH references, its flat-table
// slot and its summary. The entries slice keeps a tombstone (nil summary)
// so other slots stay valid; tombstones are reclaimed on the next Build.
// It returns an error if the photo is not indexed.
func (e *Engine) Delete(id uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.index == nil {
		return fmt.Errorf("core: engine not built")
	}
	slot, ok := e.slotLocked(id)
	if !ok {
		// Not resident: the photo may have been migrated to the cold tier,
		// where deletion is a durable catalog tombstone (the record itself
		// lingers on disk until the compactor folds it away).
		if e.cold != nil {
			deleted, err := e.cold.Delete(id)
			if err != nil {
				return fmt.Errorf("core: deleting cold photo %d: %w", id, err)
			}
			if deleted {
				e.epoch.Add(1)
				e.publishLocked()
				return nil
			}
		}
		return fmt.Errorf("core: photo %d not indexed", id)
	}
	sp := e.entries[slot].summary
	if sp != nil && len(sp.Bits) > 0 {
		if _, err := e.index.Delete(lsh.ItemID(id), sp.Bits); err != nil {
			return fmt.Errorf("core: removing LSH references: %w", err)
		}
	}
	if !e.table.Delete(id) {
		return fmt.Errorf("core: photo %d missing from flat table (index corrupt)", id)
	}
	// Tombstone copy-on-write: the entries backing array is shared with
	// published read views, so the slot must not be cleared in place under a
	// concurrent query. Appends extend the shared array safely (they write
	// past every published length); overwrites copy.
	next := make([]entry, len(e.entries), cap(e.entries))
	copy(next, e.entries)
	next[slot] = entry{} // tombstone
	e.entries = next
	// Dual residency (a migration interrupted between its cold publish and
	// hot removal) must not resurrect the photo: tombstone the cold copy too.
	if e.cold != nil && e.cold.Contains(id) {
		if _, err := e.cold.Delete(id); err != nil {
			return fmt.Errorf("core: deleting cold copy of photo %d: %w", id, err)
		}
	}
	e.epoch.Add(1) // retire result-cache entries computed before the delete
	e.publishLocked()
	return nil
}

// Contains reports whether a photo is currently indexed in either tier.
func (e *Engine) Contains(id uint64) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if _, ok := e.slotLocked(id); ok {
		return true
	}
	return e.cold != nil && e.cold.Contains(id)
}

// Compact rebuilds the entry storage without deletion tombstones, shrinking
// the per-entry slice and refreshing the flat table. Long-running
// deployments call it after bulk deletions; queries and inserts work
// identically before and after.
func (e *Engine) Compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.table == nil {
		return fmt.Errorf("core: engine not built")
	}
	live := make([]entry, 0, e.table.Len())
	for _, ent := range e.entries {
		if ent.summary != nil {
			live = append(live, ent)
		}
	}
	capacity := e.cfg.TableCapacity
	if capacity == 0 {
		capacity = e.table.Cap() // keep the existing size
	}
	table, err := cuckoo.NewFlat(capacity, e.cfg.Neighborhood, 0, 12345)
	if err != nil {
		return err
	}
	for slot, ent := range live {
		if err := table.Insert(ent.id, uint64(slot)); err != nil {
			return fmt.Errorf("core: compacting entry %d: %w", ent.id, err)
		}
	}
	e.entries = live
	e.table = table
	e.epoch.Add(1) // entry slots moved; cached results must not outlive them
	e.publishLocked()
	return nil
}
