// Package tiered implements the disk-resident cold tier of the two-tier
// index. The hot tier (internal/core) keeps recent entries in the lock-free
// epoch-published RAM view; this package holds everything migrated out of
// it, laid out IVF-style on disk: each LSH band bucket maps to a postings
// list of summaries in an immutable CRC'd segment file, opened read-only
// with mmap and scanned sequentially per probed bucket. Because postings
// carry the same sorted set-bit positions the hot tier stores, are scored
// by the same kernel, and are keyed by the same band keys the in-RAM index
// computes, a probe that spills here collects and scores exactly the
// candidates it would have collected had the entries stayed resident — the
// foundation of the engine's tiered byte-identity guarantee.
//
// Durability is delegated to internal/store: segment files go through the
// temp→fsync→rename→dirsync publish sequence, and the catalog — the
// ordered segment list plus the tombstone set — is a store.Generations
// snapshot with fallback. Mutations (Migrate, Delete, ReplaceAll) publish
// the catalog first and only then swap the in-memory View, so a crash at
// any step leaves either the old state or the new one, never a mix; an
// orphaned segment (written but never cataloged) is swept at the next Open.
package tiered

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/store"
)

// Options configures a cold-tier store. M, K, Bands, and SeedFP pin the
// geometry; opening an existing catalog written under different parameters
// fails rather than silently mis-scoring.
type Options struct {
	// Dir holds the catalog generations and segment files.
	Dir string
	// M and K are the summary filter geometry (bits, hash count).
	M uint32
	K int
	// Bands is the LSH band count; each entry carries one key per band.
	Bands int
	// SeedFP is lsh.SeedFingerprint() of the hash family the band keys are
	// computed under.
	SeedFP uint64
	// Keep is the catalog generation count (0 means store.Generations'
	// default of 2).
	Keep int
}

// Store is the cold tier: an atomically-published View over immutable
// mmap'd segments, plus the mutation protocol that grows and compacts it.
// Reads (View and everything hanging off it) are lock-free; mutations
// serialize on mu and publish catalog-then-view.
type Store struct {
	opts Options
	geo  geometry
	cat  *store.Generations

	mu      sync.Mutex
	nextSeq uint64
	tombs   map[uint64]struct{}
	retired []*Segment // compacted away, mappings kept for old-view readers
	closed  bool

	view atomic.Pointer[View]

	migrations  atomic.Int64
	compactions atomic.Int64
	spillProbes atomic.Int64
	postings    atomic.Int64
	bytesRead   atomic.Int64
}

// View is an immutable snapshot of the cold tier: the live segments in
// catalog order and the ownership map. A posting for id inside segment i is
// live iff owner[id] == i — this one rule subsumes both tombstones (deleted
// ids own nothing) and cross-segment duplicates (a re-migrated id is owned
// by its newest segment, stale copies in older segments score nothing).
type View struct {
	segs  []*Segment
	owner map[uint64]int32
}

// Len is the live cold entry count.
func (v *View) Len() int {
	if v == nil {
		return 0
	}
	return len(v.owner)
}

// Contains reports whether id is live in the cold tier.
func (v *View) Contains(id uint64) bool {
	if v == nil {
		return false
	}
	_, ok := v.owner[id]
	return ok
}

// Segments returns the live segments in catalog order. Callers must not
// mutate the slice.
func (v *View) Segments() []*Segment {
	if v == nil {
		return nil
	}
	return v.segs
}

// Owns reports whether segment index seg is the live home of id — the
// staleness filter cold scans apply per posting.
func (v *View) Owns(id uint64, seg int) bool {
	si, ok := v.owner[id]
	return ok && int(si) == seg
}

// Lookup resolves id to its owning segment and record offset.
func (v *View) Lookup(id uint64) (*Segment, int, bool) {
	if v == nil {
		return nil, 0, false
	}
	si, ok := v.owner[id]
	if !ok {
		return nil, 0, false
	}
	seg := v.segs[si]
	off, ok := seg.Lookup(id)
	if !ok {
		return nil, 0, false
	}
	return seg, off, true
}

// AppendIDs appends every live cold id to dst (unordered) and returns the
// extended slice.
func (v *View) AppendIDs(dst []uint64) []uint64 {
	if v == nil {
		return dst
	}
	for id := range v.owner {
		dst = append(dst, id)
	}
	return dst
}

// Open recovers (or initializes) the cold tier at opts.Dir. The catalog is
// recovered through its generations newest-first; a generation whose
// referenced segments are missing or corrupt fails to load, falling back to
// the previous generation. Segment files no catalog generation references —
// crash debris from a death between segment publish and catalog publish —
// are removed. Returns the store and the paths swept.
func Open(opts Options) (*Store, []string, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("tiered: Dir required")
	}
	if opts.M == 0 || opts.Bands <= 0 {
		return nil, nil, errors.New("tiered: M and Bands must be set")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("tiered: %w", err)
	}
	geo := geometry{m: opts.M, k: uint32(opts.K), bands: uint32(opts.Bands), seedFP: opts.SeedFP}
	s := &Store{
		opts:    opts,
		geo:     geo,
		cat:     &store.Generations{Path: filepath.Join(opts.Dir, "catalog.fast"), Keep: opts.Keep},
		tombs:   make(map[uint64]struct{}),
		nextSeq: 1,
	}
	var cata catalog
	var segs []*Segment
	info, err := s.cat.Recover(func(path string, r io.Reader) error {
		enc, rerr := io.ReadAll(r)
		if rerr != nil {
			return rerr
		}
		c, derr := decodeCatalog(enc)
		if derr != nil {
			return derr
		}
		if c.geo != geo {
			return fmt.Errorf("tiered: catalog geometry mismatch: catalog has m=%d k=%d bands=%d seed %#x, index is m=%d k=%d bands=%d seed %#x",
				c.geo.m, c.geo.k, c.geo.bands, c.geo.seedFP, geo.m, geo.k, geo.bands, geo.seedFP)
		}
		opened := make([]*Segment, 0, len(c.segs))
		fail := func(err error) error {
			for _, o := range opened {
				o.close()
			}
			return err
		}
		for _, cs := range c.segs {
			seg, serr := openSegment(segPath(opts.Dir, cs.seq), cs.seq, geo)
			if serr != nil {
				return fail(serr)
			}
			opened = append(opened, seg)
			if uint64(seg.Entries()) != cs.entries {
				return fail(fmt.Errorf("tiered: segment %016x holds %d entries, catalog says %d", cs.seq, seg.Entries(), cs.entries))
			}
		}
		cata = c
		segs = opened
		return nil
	})
	swept := info.Swept
	if err != nil {
		if !errors.Is(err, store.ErrNoSnapshot) {
			return nil, nil, err
		}
		cata = catalog{geo: geo, nextSeq: 1}
	}
	if cata.nextSeq > 0 {
		s.nextSeq = cata.nextSeq
	}
	for _, id := range cata.tombs {
		s.tombs[id] = struct{}{}
	}
	owner := make(map[uint64]int32)
	for i, seg := range segs {
		for id := range seg.byID {
			owner[id] = int32(i)
		}
	}
	for id := range s.tombs {
		delete(owner, id)
	}
	s.view.Store(&View{segs: segs, owner: owner})
	swept = append(swept, s.sweepOrphans(segs)...)
	return s, swept, nil
}

// sweepOrphans removes segment files the live catalog does not reference.
func (s *Store) sweepOrphans(live []*Segment) []string {
	known := make(map[string]struct{}, len(live))
	for _, seg := range live {
		known[seg.path] = struct{}{}
	}
	matches, _ := filepath.Glob(filepath.Join(s.opts.Dir, "seg-*"+segSuffix))
	var swept []string
	for _, m := range matches {
		if _, ok := known[m]; ok {
			continue
		}
		if os.Remove(m) == nil {
			swept = append(swept, m)
		}
	}
	return swept
}

// Options returns the directory and geometry the store was opened with.
func (s *Store) Options() Options { return s.opts }

// View returns the current cold-tier snapshot for lock-free reading.
func (s *Store) View() *View { return s.view.Load() }

// Len is the live cold entry count.
func (s *Store) Len() int { return s.view.Load().Len() }

// Contains reports whether id is live in the cold tier.
func (s *Store) Contains(id uint64) bool { return s.view.Load().Contains(id) }

// AppendIDs appends every live cold id to dst (unordered).
func (s *Store) AppendIDs(dst []uint64) []uint64 { return s.view.Load().AppendIDs(dst) }

func (s *Store) validateBatch(batch []Entry) error {
	for i := range batch {
		e := &batch[i]
		if err := bloom.CheckPositions(s.geo.m, e.Bits); err != nil {
			return fmt.Errorf("tiered: photo %d: %w", e.ID, err)
		}
		if len(e.Keys) != int(s.geo.bands) {
			return fmt.Errorf("tiered: photo %d carries %d band keys, geometry needs %d", e.ID, len(e.Keys), s.geo.bands)
		}
	}
	return nil
}

func (s *Store) publishCatalog(c catalog) error {
	enc := c.encode()
	if _, err := s.cat.Write(bytes.NewReader(enc)); err != nil {
		return fmt.Errorf("tiered: publishing catalog: %w", err)
	}
	return nil
}

func (s *Store) catSegsLocked(v *View) []catSeg {
	out := make([]catSeg, len(v.segs))
	for i, seg := range v.segs {
		out[i] = catSeg{seq: seg.seq, entries: uint64(seg.Entries())}
	}
	return out
}

func tombList(m map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Migrate freezes batch into a new segment and publishes it. The protocol —
// write+fsync the segment, publish the catalog naming it, swap the view —
// matches the failpoint sites: a death inside the write leaves a torn temp
// or a CRC-rejected file, a death before the catalog publish leaves a
// durable orphan the next Open sweeps, and in both cases the prior catalog
// still describes a consistent store. Tombstones for re-migrated ids are
// cleared in the same catalog generation.
func (s *Store) Migrate(batch []Entry) error {
	if len(batch) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("tiered: store closed")
	}
	if err := s.validateBatch(batch); err != nil {
		return err
	}
	cur := s.view.Load()
	for i := range batch {
		if cur.Contains(batch[i].ID) {
			return fmt.Errorf("tiered: photo %d already in cold tier", batch[i].ID)
		}
	}
	seq := s.nextSeq
	path := segPath(s.opts.Dir, seq)
	if _, err := writeSegment(path, s.geo, batch); err != nil {
		return err
	}
	seg, err := openSegment(path, seq, s.geo)
	if err != nil {
		os.Remove(path)
		return err
	}
	// The segment is durable but unreferenced until the catalog names it.
	if err := failpoint.Eval(failpoint.TieredSegmentPublish); err != nil {
		seg.close()
		return fmt.Errorf("tiered: publishing segment %016x: %w", seq, err)
	}
	newTombs := make(map[uint64]struct{}, len(s.tombs))
	for id := range s.tombs {
		newTombs[id] = struct{}{}
	}
	for i := range batch {
		delete(newTombs, batch[i].ID)
	}
	cat := catalog{
		geo:     s.geo,
		nextSeq: seq + 1,
		segs:    append(s.catSegsLocked(cur), catSeg{seq: seq, entries: uint64(len(batch))}),
		tombs:   tombList(newTombs),
	}
	if err := s.publishCatalog(cat); err != nil {
		seg.close()
		return err
	}
	s.nextSeq = seq + 1
	s.tombs = newTombs
	segs := make([]*Segment, len(cur.segs)+1)
	copy(segs, cur.segs)
	segs[len(cur.segs)] = seg
	owner := make(map[uint64]int32, len(cur.owner)+len(batch))
	for id, si := range cur.owner {
		owner[id] = si
	}
	idx := int32(len(segs) - 1)
	for i := range batch {
		owner[batch[i].ID] = idx
	}
	s.view.Store(&View{segs: segs, owner: owner})
	s.migrations.Add(1)
	return nil
}

// Delete tombstones a cold id: the catalog gains the id, the published view
// drops it from ownership (so no posting scores), and the record itself
// lingers on disk until the next ReplaceAll folds it away. Returns whether
// the id was live; a miss is not an error.
func (s *Store) Delete(id uint64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errors.New("tiered: store closed")
	}
	cur := s.view.Load()
	if !cur.Contains(id) {
		return false, nil
	}
	newTombs := make(map[uint64]struct{}, len(s.tombs)+1)
	for t := range s.tombs {
		newTombs[t] = struct{}{}
	}
	newTombs[id] = struct{}{}
	cat := catalog{geo: s.geo, nextSeq: s.nextSeq, segs: s.catSegsLocked(cur), tombs: tombList(newTombs)}
	if err := s.publishCatalog(cat); err != nil {
		return false, err
	}
	s.tombs = newTombs
	owner := make(map[uint64]int32, len(cur.owner))
	for oid, si := range cur.owner {
		if oid != id {
			owner[oid] = si
		}
	}
	s.view.Store(&View{segs: cur.segs, owner: owner})
	return true, nil
}

// ReplaceAll rewrites the cold tier as one segment holding exactly batch —
// the compaction path. The caller passes every live cold entry (with band
// keys recomputed under the same hash family); tombstoned and superseded
// records simply don't appear in the new segment, the tombstone set resets
// to empty, and the old segment files are unlinked. Their mappings stay
// alive until Close for readers still holding an old view.
func (s *Store) ReplaceAll(batch []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("tiered: store closed")
	}
	if err := s.validateBatch(batch); err != nil {
		return err
	}
	cur := s.view.Load()
	seq := s.nextSeq
	var segs []*Segment
	var catSegs []catSeg
	if len(batch) > 0 {
		path := segPath(s.opts.Dir, seq)
		if _, err := writeSegment(path, s.geo, batch); err != nil {
			return err
		}
		seg, err := openSegment(path, seq, s.geo)
		if err != nil {
			os.Remove(path)
			return err
		}
		if err := failpoint.Eval(failpoint.TieredSegmentPublish); err != nil {
			seg.close()
			return fmt.Errorf("tiered: publishing segment %016x: %w", seq, err)
		}
		segs = []*Segment{seg}
		catSegs = []catSeg{{seq: seq, entries: uint64(len(batch))}}
	}
	cat := catalog{geo: s.geo, nextSeq: seq + 1, segs: catSegs}
	if err := s.publishCatalog(cat); err != nil {
		for _, seg := range segs {
			seg.close()
		}
		return err
	}
	s.nextSeq = seq + 1
	s.tombs = make(map[uint64]struct{})
	owner := make(map[uint64]int32, len(batch))
	for i := range batch {
		owner[batch[i].ID] = 0
	}
	s.view.Store(&View{segs: segs, owner: owner})
	for _, old := range cur.segs {
		s.retired = append(s.retired, old)
		os.Remove(old.path)
	}
	s.compactions.Add(1)
	return nil
}

// DeadFraction is the share of on-disk records that score nothing —
// tombstoned or superseded by a newer segment. The engine's compactor uses
// it as the rewrite trigger.
func (s *Store) DeadFraction() float64 {
	v := s.view.Load()
	var disk int
	for _, seg := range v.segs {
		disk += seg.Entries()
	}
	if disk == 0 {
		return 0
	}
	return 1 - float64(len(v.owner))/float64(disk)
}

// NoteSpill folds one query's cold-scan accounting into the store counters:
// buckets probed, postings records scanned, bytes touched.
func (s *Store) NoteSpill(probes, postings, bytes int64) {
	s.spillProbes.Add(probes)
	s.postings.Add(postings)
	s.bytesRead.Add(bytes)
}

// Stats is a point-in-time summary of the cold tier, surfaced by
// /v1/stats as the tiered_* block.
type Stats struct {
	Entries         int   `json:"entries"`
	Segments        int   `json:"segments"`
	Tombstones      int   `json:"tombstones"`
	DiskBytes       int64 `json:"disk_bytes"`
	Migrations      int64 `json:"migrations"`
	Compactions     int64 `json:"compactions"`
	SpillProbes     int64 `json:"spill_probes"`
	PostingsScanned int64 `json:"postings_scanned"`
	BytesScanned    int64 `json:"bytes_scanned"`
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	v := s.view.Load()
	s.mu.Lock()
	tombs := len(s.tombs)
	s.mu.Unlock()
	st := Stats{
		Entries:         v.Len(),
		Segments:        len(v.Segments()),
		Tombstones:      tombs,
		Migrations:      s.migrations.Load(),
		Compactions:     s.compactions.Load(),
		SpillProbes:     s.spillProbes.Load(),
		PostingsScanned: s.postings.Load(),
		BytesScanned:    s.bytesRead.Load(),
	}
	for _, seg := range v.Segments() {
		st.DiskBytes += seg.fileBytes
	}
	return st
}

// Close unmaps every live and retired segment. The caller must guarantee no
// in-flight readers still hold a View — in the engine this is the shutdown
// path, after the serving layer has drained.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, seg := range s.view.Load().Segments() {
		if err := seg.close(); err != nil && first == nil {
			first = err
		}
	}
	for _, seg := range s.retired {
		if err := seg.close(); err != nil && first == nil {
			first = err
		}
	}
	s.retired = nil
	s.view.Store(&View{owner: map[uint64]int32{}})
	return first
}
