package cuckoo

import (
	"errors"
	"fmt"

	"github.com/fastrepro/fast/internal/failpoint"
)

// Range calls fn for every stored entry; iteration stops if fn returns
// false. Shards are visited in order; the table must not be mutated from
// within fn.
func (t *Flat) Range(fn func(key, value uint64) bool) {
	for s := range t.shards {
		sh := &t.shards[s]
		for _, c := range sh.cells {
			if c.Key != 0 && !fn(c.Key, c.Value) {
				return
			}
		}
		for _, c := range sh.stash {
			if !fn(c.Key, c.Value) {
				return
			}
		}
	}
}

// Range calls fn for every stored entry; iteration stops if fn returns
// false.
func (t *Standard) Range(fn func(key, value uint64) bool) {
	for _, c := range t.cells {
		if c.Key != 0 {
			if !fn(c.Key, c.Value) {
				return
			}
		}
	}
	for _, c := range t.stash {
		if !fn(c.Key, c.Value) {
			return
		}
	}
}

// Resizable wraps a Flat table with the production failure policy: when an
// insertion fails (the Figure 6 rehash event), the table is rebuilt at
// twice the capacity with a fresh hash seed and the insertion retried. The
// paper measures how *rare* FAST makes this event; Resizable is what a
// deployment does on the residual failures.
type Resizable struct {
	table        *Flat
	neighborhood int
	maxKicks     int
	seed         int64
	rehashes     int
	// MaxRehashes bounds consecutive grow attempts per insert (a safety
	// valve against adversarial keys); 0 means 8.
	MaxRehashes int
}

// NewResizable creates an auto-resizing flat table.
func NewResizable(capacity, neighborhood, maxKicks int, seed int64) (*Resizable, error) {
	t, err := NewFlat(capacity, neighborhood, maxKicks, seed)
	if err != nil {
		return nil, err
	}
	return &Resizable{
		table:        t,
		neighborhood: neighborhood,
		maxKicks:     maxKicks,
		seed:         seed,
	}, nil
}

// Len returns the number of stored entries.
func (r *Resizable) Len() int { return r.table.Len() }

// Cap returns the current cell count.
func (r *Resizable) Cap() int { return r.table.Cap() }

// Rehashes returns how many grow-and-rebuild events have occurred.
func (r *Resizable) Rehashes() int { return r.rehashes }

// Stats returns the current table's statistics (reset by each rehash).
func (r *Resizable) Stats() Stats { return r.table.Stats() }

// Lookup returns the value for key and whether it is present.
func (r *Resizable) Lookup(key uint64) (uint64, bool) { return r.table.Lookup(key) }

// LookupBatch resolves many keys concurrently (see Flat.LookupBatch).
func (r *Resizable) LookupBatch(keys []uint64, workers int) []LookupResult {
	return r.table.LookupBatch(keys, workers)
}

// Delete removes key, reporting whether it was present.
func (r *Resizable) Delete(key uint64) bool { return r.table.Delete(key) }

// Insert stores (key, value), growing the table as needed. It fails only
// when MaxRehashes consecutive grow attempts cannot place the key.
func (r *Resizable) Insert(key, value uint64) error {
	maxRehash := r.MaxRehashes
	if maxRehash == 0 {
		maxRehash = 8
	}
	for attempt := 0; ; attempt++ {
		err := r.table.Insert(key, value)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrTableFull) {
			return err
		}
		if attempt >= maxRehash {
			return fmt.Errorf("cuckoo: insert failed after %d rehashes: %w", attempt, err)
		}
		if err := r.grow(); err != nil {
			return err
		}
	}
}

// grow rebuilds the table at double capacity with a fresh seed; Range
// covers both the cells and the stash, so nothing is lost.
func (r *Resizable) grow() error {
	// Failpoint: a rehash that itself fails (e.g. allocation pressure at
	// the worst moment) must surface rather than lose entries.
	if err := failpoint.Eval(failpoint.CuckooRehash); err != nil {
		return fmt.Errorf("cuckoo: rehash: %w", err)
	}
	r.rehashes++
	r.seed = r.seed*6364136223846793005 + 1442695040888963407
	bigger, err := NewFlat(r.table.Cap()*2, r.neighborhood, r.maxKicks, r.seed)
	if err != nil {
		return err
	}
	var insertErr error
	r.table.Range(func(k, v uint64) bool {
		if err := bigger.Insert(k, v); err != nil {
			insertErr = err
			return false
		}
		return true
	})
	if insertErr != nil {
		// Extremely unlikely at half load; grow again recursively.
		r.table = bigger
		return r.grow()
	}
	r.table = bigger
	return nil
}
