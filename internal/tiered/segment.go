package tiered

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/store"
)

// Segment file format ("FASTSEG1", version 2), all integers little-endian:
//
//	header   64 B   magic[8] version:u32 m:u32 k:u32 reserved:u32
//	                bands:u32 bucketCount:u32 entryCount:u64 seedFP:u64
//	                records:u64 headerCRC:u32(bytes 0..56) pad:u32
//	dir      bucketCount × 32 B   band:u32 pad:u32 key:u64 start:u64 count:u64
//	                sorted by (band, key); start is the byte offset of the
//	                bucket's first record in the postings region
//	postings records   id:u64 n:u32 positions[n]:u32
//	trailer  4 B    CRC-32C over dir+postings
//
// The postings region is the IVF layout: each directory entry is one LSH
// band bucket, its postings are the summaries of every entry hashing there,
// stored as the sorted set-bit positions the hot tier and the snapshot keep.
// Buckets are laid out back to back in directory order, so a probed bucket
// is one sequential scan. Records are duplicated once per band — the honest
// inverted-file trade: ~bands× the disk of a row store. Version 1 stored
// packed filter words instead; it is refused at open.
const (
	segMagic     = "FASTSEG1"
	segVersion   = 2
	segHeaderLen = 64
	segDirEntLen = 32
	segRecHdrLen = 12 // id:u64 n:u32
	segSuffix    = ".fastseg"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxPostingsBytes bounds the postings region: record offsets are int32.
const maxPostingsBytes = 1<<31 - 1

// geometry pins the filter and hash-family parameters a segment was written
// under; a segment can only ever be probed under the identical geometry
// (the byte-identity argument needs the same positions and the same band
// keys on both tiers).
type geometry struct {
	m      uint32
	k      uint32
	bands  uint32
	seedFP uint64
}

// Entry is one summary handed to the cold tier: its sorted set-bit
// positions and the LSH bucket key for every band, computed by the engine's
// own index so cold probes land in exactly the buckets hot probes would.
type Entry struct {
	ID   uint64
	Bits []uint32 // sorted set-bit positions, each below m
	Keys []uint64 // bucket key per band, band order
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%016x%s", seq, segSuffix))
}

// writeSegment publishes batch as an immutable segment file at path via the
// crash-safe temp→fsync→rename→dirsync sequence. The tiered/segment-write
// failpoint fires at the top of the payload write and wraps the writer, so
// a PartialWrite policy produces a torn segment the CRCs reject at open.
func writeSegment(path string, geo geometry, batch []Entry) (int64, error) {
	type bucketRef struct {
		band uint32
		key  uint64
	}
	buckets := make(map[bucketRef][]int)
	for i := range batch {
		for b, key := range batch[i].Keys {
			br := bucketRef{uint32(b), key}
			buckets[br] = append(buckets[br], i)
		}
	}
	order := make([]bucketRef, 0, len(buckets))
	for br := range buckets {
		order = append(order, br)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].band != order[j].band {
			return order[i].band < order[j].band
		}
		return order[i].key < order[j].key
	})
	// starts[j] is bucket j's byte offset; the last is the region's size.
	starts := make([]int, len(order)+1)
	records := 0
	for j, br := range order {
		records += len(buckets[br])
		starts[j+1] = starts[j]
		for _, i := range buckets[br] {
			starts[j+1] += segRecHdrLen + 4*len(batch[i].Bits)
		}
	}
	postings := starts[len(order)]
	if postings > maxPostingsBytes {
		return 0, fmt.Errorf("tiered: segment postings of %d bytes exceed the %d-byte limit", postings, maxPostingsBytes)
	}

	return store.PublishFile(path, func(w io.Writer) (int64, error) {
		if err := failpoint.Eval(failpoint.TieredSegmentWrite); err != nil {
			return 0, err
		}
		bw := bufio.NewWriterSize(failpoint.Wrap(failpoint.TieredSegmentWrite, w), 1<<16)
		le := binary.LittleEndian

		var hdr [segHeaderLen]byte
		copy(hdr[:8], segMagic)
		le.PutUint32(hdr[8:], segVersion)
		le.PutUint32(hdr[12:], geo.m)
		le.PutUint32(hdr[16:], geo.k)
		le.PutUint32(hdr[24:], geo.bands)
		le.PutUint32(hdr[28:], uint32(len(order)))
		le.PutUint64(hdr[32:], uint64(len(batch)))
		le.PutUint64(hdr[40:], geo.seedFP)
		le.PutUint64(hdr[48:], uint64(records))
		le.PutUint32(hdr[56:], crc32.Checksum(hdr[:56], castagnoli))
		if _, err := bw.Write(hdr[:]); err != nil {
			return 0, err
		}

		crc := uint32(0)
		emit := func(b []byte) error {
			crc = crc32.Update(crc, castagnoli, b)
			_, err := bw.Write(b)
			return err
		}

		var dent [segDirEntLen]byte
		for j, br := range order {
			le.PutUint32(dent[0:], br.band)
			le.PutUint32(dent[4:], 0)
			le.PutUint64(dent[8:], br.key)
			le.PutUint64(dent[16:], uint64(starts[j]))
			le.PutUint64(dent[24:], uint64(len(buckets[br])))
			if err := emit(dent[:]); err != nil {
				return 0, err
			}
		}

		var rec []byte
		for _, br := range order {
			for _, i := range buckets[br] {
				e := &batch[i]
				rec = le.AppendUint64(rec[:0], e.ID)
				rec = le.AppendUint32(rec, uint32(len(e.Bits)))
				for _, b := range e.Bits {
					rec = le.AppendUint32(rec, b)
				}
				if err := emit(rec); err != nil {
					return 0, err
				}
			}
		}

		le.PutUint32(dent[:4], crc)
		if _, err := bw.Write(dent[:4]); err != nil {
			return 0, err
		}
		if err := bw.Flush(); err != nil {
			return 0, err
		}
		return int64(segHeaderLen + segDirEntLen*len(order) + postings + 4), nil
	})
}

// Segment is one immutable on-disk postings file, opened read-only and
// mmap'd. All fields are set at open and never mutated, so a Segment is
// safe for concurrent lock-free readers. Records are addressed by their
// byte offset in the postings region.
type Segment struct {
	path      string
	seq       uint64
	geo       geometry
	mm        *mapping
	post      []byte // postings region
	dir       []dirEnt
	byID      map[uint64]int32 // id → offset of its first record
	fileBytes int64
}

type dirEnt struct {
	band  uint32
	start int32 // byte offset of the first record in the postings region
	count int32
	key   uint64
}

// openSegment maps the file and validates everything — magic, version,
// header CRC, geometry, declared size, body CRC, directory order, bucket
// extents and every record's positions — before any reader can touch it,
// so a torn or corrupt segment is rejected at open rather than mis-scored
// at query time.
func openSegment(path string, seq uint64, geo geometry) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	mm, data, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("tiered: mapping segment %s: %w", filepath.Base(path), err)
	}
	s := &Segment{path: path, seq: seq, geo: geo, mm: mm, fileBytes: size}
	if err := s.parse(data); err != nil {
		mm.close()
		return nil, fmt.Errorf("tiered: segment %s: %w", filepath.Base(path), err)
	}
	return s, nil
}

// parse validates the mapped file image data and sets the segment's
// directory, postings region and id map from it.
func (s *Segment) parse(data []byte) error {
	if len(data) < segHeaderLen+4 {
		return fmt.Errorf("truncated (%d bytes)", len(data))
	}
	le := binary.LittleEndian
	h := data[:segHeaderLen]
	if string(h[:8]) != segMagic {
		return fmt.Errorf("bad magic %q", h[:8])
	}
	if v := le.Uint32(h[8:]); v != segVersion {
		return fmt.Errorf("unsupported segment version %d (this build reads version %d)", v, segVersion)
	}
	if got, want := crc32.Checksum(h[:56], castagnoli), le.Uint32(h[56:]); got != want {
		return fmt.Errorf("header CRC mismatch")
	}
	got := geometry{m: le.Uint32(h[12:]), k: le.Uint32(h[16:]), bands: le.Uint32(h[24:]), seedFP: le.Uint64(h[40:])}
	if got != s.geo {
		return fmt.Errorf("geometry mismatch: segment written under m=%d k=%d bands=%d seed %#x, index is m=%d k=%d bands=%d seed %#x",
			got.m, got.k, got.bands, got.seedFP, s.geo.m, s.geo.k, s.geo.bands, s.geo.seedFP)
	}
	bucketCount := int64(le.Uint32(h[28:]))
	entries := le.Uint64(h[32:])
	records := le.Uint64(h[48:])
	postOff := segHeaderLen + segDirEntLen*bucketCount
	postLen := int64(len(data)) - 4 - postOff
	if postLen < 0 {
		return fmt.Errorf("size %d too small for %d directory entries", len(data), bucketCount)
	}
	if postLen > maxPostingsBytes {
		return fmt.Errorf("postings region of %d bytes exceeds the %d-byte limit", postLen, maxPostingsBytes)
	}
	body := data[segHeaderLen : len(data)-4]
	if got, want := crc32.Checksum(body, castagnoli), le.Uint32(data[len(data)-4:]); got != want {
		return fmt.Errorf("body CRC mismatch")
	}
	s.post = data[postOff : postOff+postLen]

	// One pass in directory order: each bucket starts where the previous
	// one ended, every record fits its bucket and holds valid positions,
	// and the last bucket ends at the region's end.
	s.dir = make([]dirEnt, bucketCount)
	s.byID = make(map[uint64]int32, min(entries, uint64(postLen/segRecHdrLen)))
	var bits []uint32
	off, walked := int64(0), uint64(0)
	dir := data[segHeaderLen:postOff]
	for i := range s.dir {
		e := dir[i*segDirEntLen:]
		d := dirEnt{band: le.Uint32(e), key: le.Uint64(e[8:])}
		if d.band >= s.geo.bands {
			return fmt.Errorf("directory entry %d names band %d of %d", i, d.band, s.geo.bands)
		}
		if i > 0 && (d.band < s.dir[i-1].band || (d.band == s.dir[i-1].band && d.key <= s.dir[i-1].key)) {
			return fmt.Errorf("directory not sorted at entry %d", i)
		}
		start, count := le.Uint64(e[16:]), le.Uint64(e[24:])
		if start != uint64(off) {
			return fmt.Errorf("directory entry %d starts at byte %d, previous bucket ends at %d", i, start, off)
		}
		d.start, d.count = int32(off), int32(count)
		// Each record advances off by at least segRecHdrLen, so a forged
		// count fails here within postLen/segRecHdrLen steps.
		for r := uint64(0); r < count; r++ {
			if postLen-off < segRecHdrLen || int64(le.Uint32(s.post[off+8:])) > (postLen-off-segRecHdrLen)/4 {
				return fmt.Errorf("directory entry %d record %d overruns the postings region", i, r)
			}
			bits = s.RecordBits(int(off), bits)
			if err := bloom.CheckPositions(s.geo.m, bits); err != nil {
				return fmt.Errorf("directory entry %d record %d: %w", i, r, err)
			}
			id := le.Uint64(s.post[off:])
			if _, ok := s.byID[id]; !ok {
				s.byID[id] = int32(off)
			}
			off += segRecHdrLen + 4*int64(len(bits))
		}
		walked += count
		s.dir[i] = d
	}
	if off != postLen {
		return fmt.Errorf("buckets end at byte %d of a %d-byte postings region", off, postLen)
	}
	if walked != records {
		return fmt.Errorf("record count mismatch: header says %d, directory holds %d", records, walked)
	}
	if uint64(len(s.byID)) != entries {
		return fmt.Errorf("entry count mismatch: header says %d, postings hold %d", entries, len(s.byID))
	}
	return nil
}

// Entries is the unique-id count of the segment.
func (s *Segment) Entries() int { return len(s.byID) }

// Lookup returns the offset of the first record holding id.
func (s *Segment) Lookup(id uint64) (int, bool) {
	off, ok := s.byID[id]
	return int(off), ok
}

// Bucket returns the postings list of (band, key), empty if the segment has
// no such bucket. Binary search over the (band, key)-sorted directory.
func (s *Segment) Bucket(band int, key uint64) Postings {
	i := sort.Search(len(s.dir), func(i int) bool {
		d := &s.dir[i]
		return d.band > uint32(band) || (d.band == uint32(band) && d.key >= key)
	})
	if i < len(s.dir) && s.dir[i].band == uint32(band) && s.dir[i].key == key {
		d := &s.dir[i]
		end := len(s.post)
		if i+1 < len(s.dir) {
			end = int(s.dir[i+1].start)
		}
		return Postings{seg: s, start: int(d.start), next: int(d.start), end: end, n: int(d.count)}
	}
	return Postings{}
}

// RecordBits decodes the positions of the record at offset off into dst,
// reusing its capacity, and returns them.
func (s *Segment) RecordBits(off int, dst []uint32) []uint32 {
	le := binary.LittleEndian
	n := int(le.Uint32(s.post[off+8:]))
	p := s.post[off+segRecHdrLen : off+segRecHdrLen+4*n]
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = le.Uint32(p[4*i:])
	}
	return dst
}

func (s *Segment) close() error { return s.mm.close() }

// Postings is one bucket's postings list: a contiguous run of records read
// front to back. Next advances to the following record; ID and Bits read
// the current one. The zero value is an empty list.
type Postings struct {
	seg        *Segment
	start, end int // byte range of the bucket in the postings region
	cur, next  int // offsets of the current and the following record
	n          int
}

// Len is the record count of the list.
func (p *Postings) Len() int { return p.n }

// Bytes is the on-disk size of the list — what one sequential scan of the
// bucket reads.
func (p *Postings) Bytes() int64 { return int64(p.end - p.start) }

// Next moves to the next record and reports whether there was one.
func (p *Postings) Next() bool {
	if p.next >= p.end {
		return false
	}
	p.cur = p.next
	p.next += segRecHdrLen + 4*int(binary.LittleEndian.Uint32(p.seg.post[p.cur+8:]))
	return true
}

// ID returns the photo id of the current record.
func (p *Postings) ID() uint64 { return binary.LittleEndian.Uint64(p.seg.post[p.cur:]) }

// Bits decodes the current record's positions into dst (see
// Segment.RecordBits).
func (p *Postings) Bits(dst []uint32) []uint32 { return p.seg.RecordBits(p.cur, dst) }
