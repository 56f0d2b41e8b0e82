package tiered

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/failpoint"
)

var testOpts = Options{M: 256, K: 4, Bands: 4, SeedFP: 0xfa57fa57}

// testEntry builds a deterministic entry for id: positions and band keys
// are pure functions of the id so reopened state can be checked
// value-for-value.
func testEntry(opts Options, id uint64) Entry {
	words := make([]uint64, bloom.PackedWords(opts.M))
	for i := range words {
		words[i] = id*0x9e3779b97f4a7c15 + uint64(i)
	}
	keys := make([]uint64, opts.Bands)
	for b := range keys {
		// Small key space so buckets genuinely collide across entries.
		keys[b] = uint64(b)<<32 | (id % 7)
	}
	return Entry{ID: id, Bits: bloom.AppendBits(nil, words), Keys: keys}
}

func openTest(t *testing.T, dir string) *Store {
	t.Helper()
	opts := testOpts
	opts.Dir = dir
	s, _, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func migrateIDs(t *testing.T, s *Store, ids ...uint64) {
	t.Helper()
	batch := make([]Entry, len(ids))
	for i, id := range ids {
		batch[i] = testEntry(s.opts, id)
	}
	if err := s.Migrate(batch); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
}

// assertLive checks the view scores exactly want: every live id is found in
// its buckets with its exact positions, and nothing else passes the owner
// check.
func assertLive(t *testing.T, s *Store, want ...uint64) {
	t.Helper()
	v := s.View()
	if v.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(want))
	}
	var scratch []uint32
	for _, id := range want {
		if !v.Contains(id) {
			t.Fatalf("Contains(%d) = false", id)
		}
		e := testEntry(s.opts, id)
		// Every band bucket for the id must yield the id with exact
		// positions from exactly one owning segment.
		for b, key := range e.Keys {
			found := false
			for si, seg := range v.Segments() {
				p := seg.Bucket(b, key)
				for p.Next() {
					if p.ID() != id || !v.Owns(id, si) {
						continue
					}
					scratch = p.Bits(scratch)
					if !slices.Equal(scratch, e.Bits) {
						t.Fatalf("id %d band %d positions = %v, want %v", id, b, scratch, e.Bits)
					}
					found = true
				}
			}
			if !found {
				t.Fatalf("id %d not found in band %d bucket %#x", id, b, key)
			}
		}
		seg, off, ok := v.Lookup(id)
		if !ok {
			t.Fatalf("Lookup(%d) missed", id)
		}
		if scratch = seg.RecordBits(off, scratch); !slices.Equal(scratch, e.Bits) {
			t.Fatalf("Lookup(%d) positions = %v, want %v", id, scratch, e.Bits)
		}
	}
}

func TestMigrateRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	migrateIDs(t, s, 1, 2, 3, 4, 5)
	migrateIDs(t, s, 6, 7)
	assertLive(t, s, 1, 2, 3, 4, 5, 6, 7)
	if got := s.Stats(); got.Segments != 2 || got.Entries != 7 || got.Migrations != 2 {
		t.Fatalf("Stats = %+v", got)
	}

	// Reopen: identical state from disk.
	s.Close()
	s2 := openTest(t, dir)
	assertLive(t, s2, 1, 2, 3, 4, 5, 6, 7)
}

func TestMigrateRejects(t *testing.T) {
	s := openTest(t, t.TempDir())
	migrateIDs(t, s, 1)
	if err := s.Migrate([]Entry{testEntry(s.opts, 1)}); err == nil {
		t.Fatal("re-migrating a live id should fail")
	}
	bad := testEntry(s.opts, 2)
	bad.Bits = append(bad.Bits, s.opts.M)
	if err := s.Migrate([]Entry{bad}); err == nil {
		t.Fatal("a position at or above m should fail")
	}
	bad = testEntry(s.opts, 2)
	bad.Bits[0], bad.Bits[1] = bad.Bits[1], bad.Bits[0]
	if err := s.Migrate([]Entry{bad}); err == nil {
		t.Fatal("unsorted positions should fail")
	}
	bad = testEntry(s.opts, 2)
	bad.Keys = bad.Keys[:1]
	if err := s.Migrate([]Entry{bad}); err == nil {
		t.Fatal("wrong key count should fail")
	}
}

func TestDeleteTombstoneDurable(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	migrateIDs(t, s, 1, 2, 3)
	if ok, err := s.Delete(2); err != nil || !ok {
		t.Fatalf("Delete(2) = %v, %v", ok, err)
	}
	if ok, err := s.Delete(99); err != nil || ok {
		t.Fatalf("Delete(99) = %v, %v (want miss)", ok, err)
	}
	assertLive(t, s, 1, 3)
	if s.Stats().Tombstones != 1 {
		t.Fatalf("Tombstones = %d, want 1", s.Stats().Tombstones)
	}

	s.Close()
	s2 := openTest(t, dir)
	assertLive(t, s2, 1, 3)

	// A deleted id can come back via a later migration; the tombstone is
	// cleared in the same catalog generation.
	migrateIDs(t, s2, 2)
	assertLive(t, s2, 1, 2, 3)
	if s2.Stats().Tombstones != 0 {
		t.Fatalf("Tombstones = %d after re-migrate, want 0", s2.Stats().Tombstones)
	}
	s2.Close()
	s3 := openTest(t, dir)
	assertLive(t, s3, 1, 2, 3)
}

func TestReplaceAllCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	migrateIDs(t, s, 1, 2, 3)
	migrateIDs(t, s, 4, 5)
	if _, err := s.Delete(2); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if df := s.DeadFraction(); df <= 0 {
		t.Fatalf("DeadFraction = %v, want > 0 after delete", df)
	}
	old := s.View()

	live := []Entry{testEntry(s.opts, 1), testEntry(s.opts, 3), testEntry(s.opts, 4), testEntry(s.opts, 5)}
	if err := s.ReplaceAll(live); err != nil {
		t.Fatalf("ReplaceAll: %v", err)
	}
	assertLive(t, s, 1, 3, 4, 5)
	if st := s.Stats(); st.Segments != 1 || st.Tombstones != 0 || st.Compactions != 1 {
		t.Fatalf("Stats after compaction = %+v", st)
	}
	if df := s.DeadFraction(); df != 0 {
		t.Fatalf("DeadFraction = %v after compaction, want 0", df)
	}
	// Readers holding the pre-compaction view still scan valid memory even
	// though the old files are unlinked.
	for _, seg := range old.Segments() {
		if _, err := os.Stat(seg.path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("old segment file %s still on disk", seg.path)
		}
		p := seg.Bucket(0, 1)
		for p.Next() {
			_ = p.ID()
			_ = p.Bits(nil)
		}
	}

	s.Close()
	s2 := openTest(t, dir)
	assertLive(t, s2, 1, 3, 4, 5)
}

func TestOpenSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	migrateIDs(t, s, 1, 2)
	s.Close()

	// A segment written but never cataloged (death before catalog publish).
	orphan := segPath(dir, 99)
	if _, err := writeSegment(orphan, s.geo, []Entry{testEntry(s.opts, 42)}); err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	s2 := openTest(t, dir)
	assertLive(t, s2, 1, 2)
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphan segment not swept at open")
	}
}

func TestOpenRejectsGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	migrateIDs(t, s, 1)
	s.Close()

	opts := testOpts
	opts.Dir = dir
	opts.Bands = 8
	if _, _, err := Open(opts); err == nil {
		t.Fatal("Open with mismatched bands should fail")
	}
	opts = testOpts
	opts.Dir = dir
	opts.SeedFP = 1
	if _, _, err := Open(opts); err == nil {
		t.Fatal("Open with mismatched seed fingerprint should fail")
	}
}

func TestCorruptSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	migrateIDs(t, s, 1, 2, 3)
	seg := s.View().Segments()[0].path
	s.Close()

	// Flip a byte in the postings region: body CRC must reject the segment,
	// and with the only catalog generation referencing it, open fails loudly
	// rather than serving corrupt summaries.
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := testOpts
	opts.Dir = dir
	if _, _, err := Open(opts); err == nil {
		t.Fatal("Open over a corrupt segment should fail")
	}
}

// TestOpenRefusesVersion1Segment: a segment in the retired packed-word
// format (version 1) fails Open with an error naming its version, and the
// failed load sweeps nothing — the segment and the catalog naming it stay
// on disk.
func TestOpenRefusesVersion1Segment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	migrateIDs(t, s, 1, 2, 3)
	seg := s.View().Segments()[0].path
	s.Close()

	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:], 1)
	binary.LittleEndian.PutUint32(raw[56:], crc32.Checksum(raw[:56], castagnoli))
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	listDir := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := listDir()
	opts := testOpts
	opts.Dir = dir
	if _, _, err := Open(opts); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Open over a version-1 segment: err = %v, want one naming version 1", err)
	}
	if after := listDir(); !slices.Equal(after, before) {
		t.Fatalf("files after the refused open = %v, want %v", after, before)
	}
}

func TestCatalogGenerationsFallback(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	migrateIDs(t, s, 1, 2)
	migrateIDs(t, s, 3) // second catalog generation
	s.Close()

	// Corrupt the primary catalog: recovery falls back to the previous
	// generation, which describes the state before the last migration. The
	// segment the lost generation added is swept as an orphan.
	cat := filepath.Join(dir, "catalog.fast")
	raw, err := os.ReadFile(cat)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(cat, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir)
	assertLive(t, s2, 1, 2)
	if got := len(s2.View().Segments()); got != 1 {
		t.Fatalf("segments after fallback = %d, want 1", got)
	}
}

func TestMigrateFailpointCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	migrateIDs(t, s, 1, 2)

	// Torn segment write: the temp never renames, nothing changes.
	failpoint.Enable(failpoint.TieredSegmentWrite, failpoint.Policy{Action: failpoint.PartialWrite, Bytes: 32})
	err := s.Migrate([]Entry{testEntry(s.opts, 3)})
	failpoint.Reset()
	if err == nil {
		t.Fatal("Migrate under PartialWrite should fail")
	}
	assertLive(t, s, 1, 2)

	// Death between segment publish and catalog publish: the migration
	// fails, the view is unchanged, and the durable-but-unreferenced
	// segment is reclaimed at the next open.
	failpoint.Enable(failpoint.TieredSegmentPublish, failpoint.Policy{Action: failpoint.Error})
	err = s.Migrate([]Entry{testEntry(s.opts, 3)})
	failpoint.Reset()
	if err == nil {
		t.Fatal("Migrate under publish failpoint should fail")
	}
	assertLive(t, s, 1, 2)
	s.Close()

	s2 := openTest(t, dir)
	assertLive(t, s2, 1, 2)
	// The retry after "recovery" succeeds and reuses the sequence number.
	migrateIDs(t, s2, 3)
	assertLive(t, s2, 1, 2, 3)

	// No stray files: every .fastseg on disk is referenced.
	known := make(map[string]bool)
	for _, seg := range s2.View().Segments() {
		known[filepath.Base(seg.path)] = true
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "seg-*"+segSuffix))
	for _, m := range matches {
		if !known[filepath.Base(m)] {
			t.Fatalf("unreferenced segment file %s", m)
		}
	}
}

// reseal recomputes a segment image's header and body CRCs, so a fuzzed
// image reaches the structural checks instead of failing a checksum first.
func reseal(b []byte) {
	if len(b) < segHeaderLen+4 {
		return
	}
	le := binary.LittleEndian
	le.PutUint32(b[56:], crc32.Checksum(b[:56], castagnoli))
	le.PutUint32(b[len(b)-4:], crc32.Checksum(b[segHeaderLen:len(b)-4], castagnoli))
}

// FuzzOpenSegment feeds arbitrary (CRC-resealed) segment images to the
// segment reader — the validation openSegment runs over the mapped file,
// called on the bytes directly so an execution does no file I/O. Reading
// must never panic, and every segment it accepts must read back in bounds:
// each bucket yields exactly its record count, every record's positions
// pass bloom.CheckPositions, and every id resolves to a record holding that
// id.
func FuzzOpenSegment(f *testing.F) {
	dir := f.TempDir()
	geo := geometry{m: testOpts.M, k: uint32(testOpts.K), bands: uint32(testOpts.Bands), seedFP: testOpts.SeedFP}
	path := filepath.Join(dir, "seed"+segSuffix)
	// Few short records keep the seeds small, so the fuzzer's input
	// minimization stays cheap; ids 1 and 8 share every bucket.
	batch := []Entry{testEntry(testOpts, 1), testEntry(testOpts, 2), testEntry(testOpts, 8)}
	batch[0].Bits = []uint32{3, 70, 255}
	batch[1].Bits = []uint32{0}
	batch[2].Bits = nil
	if _, err := writeSegment(path, geo, batch); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	flipped := slices.Clone(valid) // TestCorruptSegmentFailsOpen's case
	flipped[len(flipped)-10] ^= 0xff
	f.Add(flipped)
	f.Add(valid[:len(valid)-7])
	f.Add(valid[:segHeaderLen])

	f.Fuzz(func(t *testing.T, data []byte) {
		data = slices.Clone(data)
		reseal(data)
		seg := &Segment{geo: geo}
		if seg.parse(data) != nil {
			return
		}
		var bits []uint32
		for _, d := range seg.dir {
			pl := seg.Bucket(int(d.band), d.key)
			n := 0
			for pl.Next() {
				n++
				if bits = pl.Bits(bits); bloom.CheckPositions(geo.m, bits) != nil {
					t.Fatalf("bucket (%d, %#x) record %d: positions %v", d.band, d.key, n, bits)
				}
			}
			if n != pl.Len() {
				t.Fatalf("bucket (%d, %#x) yields %d records, directory says %d", d.band, d.key, n, pl.Len())
			}
		}
		for id, off := range seg.byID {
			if got := binary.LittleEndian.Uint64(seg.post[off:]); got != id {
				t.Fatalf("id %d resolves to a record of id %d", id, got)
			}
			if bits = seg.RecordBits(int(off), bits); bloom.CheckPositions(geo.m, bits) != nil {
				t.Fatalf("id %d: positions %v", id, bits)
			}
		}
	})
}
