package core

import (
	"errors"
	"fmt"

	"github.com/fastrepro/fast/internal/lsh"
)

// ErrNotIndexed is wrapped by a Delete of a photo id the engine holds in
// neither tier.
var ErrNotIndexed = errors.New("core: photo not indexed")

// Delete removes a photo from the index: its LSH references, its flat-table
// slot and its summary (see removeHotLocked), or its cold-tier record. It
// returns an error wrapping ErrNotIndexed if the photo is not indexed.
func (e *Engine) Delete(id uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.index == nil {
		return fmt.Errorf("core: engine not built")
	}
	if _, ok := e.slotLocked(id); ok {
		err := e.removeHotLocked([]uint64{id})
		// Dual residency (a migration interrupted between its cold publish
		// and hot removal) must not resurrect the photo: tombstone the cold
		// copy too.
		if err == nil && e.cold != nil && e.cold.Contains(id) {
			if _, cerr := e.cold.Delete(id); cerr != nil {
				err = fmt.Errorf("core: deleting cold copy of photo %d: %w", id, cerr)
			}
		}
		e.publishLocked()
		return err
	}
	// Not resident: the photo may have been migrated to the cold tier, where
	// deletion is a durable catalog tombstone (the record itself lingers on
	// disk until the compactor folds it away).
	if e.cold != nil {
		deleted, err := e.cold.Delete(id)
		if err != nil {
			return fmt.Errorf("core: deleting cold photo %d: %w", id, err)
		}
		if deleted {
			e.publishLocked()
			return nil
		}
	}
	return fmt.Errorf("core: deleting photo %d: %w", id, ErrNotIndexed)
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

// removeHotLocked is the one way out of the hot tier: it drops the
// RAM-resident ids among ids from the LSH index, the flat table and the
// entry storage, leaving a tombstone (zero entry) in each freed slot so the
// other slots stay valid. Delete and MigrateCold remove through it, and so
// does the cold tier's reconciliation on attach. Callers publish afterwards,
// on error too: a failed removal may have applied a prefix of ids.
//
// The entry slice is shared with published read views, so a slot is never
// cleared in place under a concurrent query: the removal works on a copy.
// When dead slots outnumber live entries, the tombstones are reclaimed: the
// entry slice is rebuilt from the live entries in slot order (so migration
// still takes the oldest first) and the flat table is rebuilt at its
// current capacity. The LSH index holds ids, not slots, and is untouched.
// A rebuild the table refuses keeps the tombstoned structures, which
// answer the same; the next removal tries again.
func (e *Engine) removeHotLocked(ids []uint64) error {
	next := make([]entry, len(e.entries), cap(e.entries))
	copy(next, e.entries)
	defer func() { e.entries = next }() // on error too: keep what was removed
	for i, r := range e.table.LookupBatch(ids, 1) {
		if !r.Found {
			continue
		}
		id := ids[i]
		if sp := next[r.Value].summary; sp != nil && len(sp.Bits) > 0 {
			if _, err := e.index.Delete(lsh.ItemID(id), sp.Bits); err != nil {
				return fmt.Errorf("core: removing LSH references of photo %d: %w", id, err)
			}
		}
		if !e.table.Delete(id) {
			return fmt.Errorf("core: photo %d missing from flat table (index corrupt)", id)
		}
		next[r.Value] = entry{}
	}

	live := e.table.Len()
	if len(next)-live <= live {
		return nil
	}
	kept := make([]entry, 0, live)
	for _, ent := range next {
		if ent.summary != nil {
			kept = append(kept, ent)
		}
	}
	table, err := e.newTable(e.table.Cap())
	for slot := 0; err == nil && slot < len(kept); slot++ {
		err = table.Insert(kept[slot].id, uint64(slot))
	}
	if err == nil {
		next, e.table = kept, table
	}
	return nil
}
