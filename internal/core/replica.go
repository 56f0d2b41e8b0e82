package core

import (
	"errors"
	"fmt"

	"github.com/fastrepro/fast/internal/bloom"
)

// Replica summary transfer.
//
// Shards in a replicated cluster migrate entries between engines without
// re-running FE+SM: an indexed photo is fully described by its (id, sparse
// summary) pair, so a receiving engine that shares the sender's trained
// PCA-SIFT basis can adopt the entry verbatim and produce byte-identical
// query answers for it. That shared-basis precondition is exactly the one
// the cluster tier already establishes (every shard subsets one commonly
// trained snapshot; fastd forces group expansion off in shard mode), so
// ring migration ships summaries, not pixels.

// SummaryOf returns a copy of the stored sparse summary for a RAM-resident
// photo, or false when the id is absent (or resident only in the cold
// tier, whose postings live on disk — callers fetch from snapshot-restored
// engines, which are all-hot). The copy shares nothing with the engine, so
// the caller may hand it to another engine's InsertSummary.
func (e *Engine) SummaryOf(id uint64) (*bloom.Sparse, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	slot, ok := e.slotLocked(id)
	if !ok {
		return nil, false
	}
	src := e.entries[slot].summary
	cp := &bloom.Sparse{M: src.M, K: src.K, Bits: append([]uint32(nil), src.Bits...)}
	return cp, true
}

// InsertSummary indexes an already-summarized entry, skipping the FE+SM
// front half. It is only sound between engines built from one trained
// basis; mixing bases silently degrades answers, so callers (the ring
// migration path) must guarantee the precondition. The entry becomes
// visible to queries before InsertSummary returns, exactly like Insert.
func (e *Engine) InsertSummary(id uint64, s *bloom.Sparse) error {
	if s == nil {
		return errors.New("core: nil summary")
	}
	if err := checkSummary(s, e.cfg.Summary); err != nil {
		return fmt.Errorf("core: summary for %d: %w", id, err)
	}
	cp := &bloom.Sparse{M: s.M, K: s.K, Bits: append([]uint32(nil), s.Bits...)}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pcasift == nil {
		return errors.New("core: engine not built")
	}
	if err := e.storeLocked(id, cp); err != nil {
		return fmt.Errorf("core: adopting summary for %d: %w", id, err)
	}
	e.publishLocked()
	return nil
}

// checkSummary rejects a summary the engine cannot store or score
// faithfully: its geometry must be the configured one (probe words are
// packed at that width, and migration freezes entries at it), and its
// positions must pass bloom.CheckPositions (so packing keeps every
// position and the position count is the popcount the scoring kernel's
// union count relies on). InsertSummary and ReadEngine gate stored
// summaries on it; QuerySummary gates probes.
func checkSummary(s *bloom.Sparse, sc bloom.SummaryConfig) error {
	if s.M != sc.Bits || s.K != sc.K {
		return fmt.Errorf("geometry %d/%d differs from config %d/%d", s.M, s.K, sc.Bits, sc.K)
	}
	return bloom.CheckPositions(s.M, s.Bits)
}
