package tiered

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"unsafe"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/store"
)

// Segment file format ("FASTSEG1"), all integers little-endian:
//
//	header   64 B   magic[8] version:u32 m:u32 k:u32 wordsPerEntry:u32
//	                bands:u32 bucketCount:u32 entryCount:u64 seedFP:u64
//	                records:u64 headerCRC:u32(bytes 0..56) pad:u32
//	dir      bucketCount × 32 B   band:u32 pad:u32 key:u64 start:u64 count:u64
//	                sorted by (band, key); start/count are record ordinals
//	postings records × stride B   id:u64 words[wordsPerEntry]:u64
//	trailer  4 B    CRC-32C over dir+postings
//
// The postings region is the IVF layout: each directory entry is one LSH
// band bucket, its postings are the packed summaries of every entry hashing
// there. Records are duplicated once per band — the honest inverted-file
// trade: ~bands× the disk of a row store, bought back as one sequential
// scan per probed bucket with zero deserialization, because the word layout
// on disk is exactly the []uint64 layout bloom.AndOrCount consumes. The
// header is 64 B and directory entries 32 B, so the postings region — and
// every 8·(1+words)-stride record in it — stays 8-byte aligned for the
// zero-copy word view.
const (
	segMagic     = "FASTSEG1"
	segVersion   = 1
	segHeaderLen = 64
	segDirEntLen = 32
	segSuffix    = ".fastseg"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// geometry pins the filter and hash-family parameters a segment was written
// under; a segment can only ever be probed under the identical geometry
// (the byte-identity argument needs the same words and the same band keys
// on both tiers).
type geometry struct {
	m      uint32
	k      uint32
	bands  uint32
	seedFP uint64
}

func (g geometry) words() int { return bloom.PackedWords(g.m) }

// Entry is one summary handed to the cold tier: the packed filter words and
// the LSH bucket key for every band, computed by the engine's own index so
// cold probes land in exactly the buckets hot probes would.
type Entry struct {
	ID    uint64
	Words []uint64 // packed summary, bloom.PackedWords(m) words
	Keys  []uint64 // bucket key per band, band order
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
	words := geo.words()
	stride := 8 * (1 + words)
	records := 0
	for _, br := range order {
		records += len(buckets[br])
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
		le.PutUint32(hdr[20:], uint32(words))
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
		start := uint64(0)
		for _, br := range order {
			n := uint64(len(buckets[br]))
			le.PutUint32(dent[0:], br.band)
			le.PutUint32(dent[4:], 0)
			le.PutUint64(dent[8:], br.key)
			le.PutUint64(dent[16:], start)
			le.PutUint64(dent[24:], n)
			if err := emit(dent[:]); err != nil {
				return 0, err
			}
			start += n
		}

		rec := make([]byte, stride)
		for _, br := range order {
			for _, i := range buckets[br] {
				e := &batch[i]
				le.PutUint64(rec[0:], e.ID)
				for wi, wv := range e.Words {
					le.PutUint64(rec[8+8*wi:], wv)
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
		return int64(segHeaderLen + segDirEntLen*len(order) + stride*records + 4), nil
	})
}

// Segment is one immutable on-disk postings file, opened read-only and
// mmap'd. All fields are set at open and never mutated, so a Segment is
// safe for concurrent lock-free readers.
type Segment struct {
	path      string
	seq       uint64
	geo       geometry
	words     int
	stride    int
	mm        *mapping
	data      []byte
	dir       []dirEnt
	postOff   int
	records   int
	byID      map[uint64]int32 // id → first record ordinal
	fileBytes int64
}

type dirEnt struct {
	band  uint32
	start int32
	count int32
	key   uint64
}

// openSegment maps the file and validates everything — magic, version,
// header CRC, geometry, declared size, body CRC, directory order and
// ranges — before any reader can touch it, so a torn or corrupt segment is
// rejected at open rather than mis-scored at query time.
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
	if size < segHeaderLen+4 {
		return nil, fmt.Errorf("tiered: segment %s: truncated (%d bytes)", filepath.Base(path), size)
	}
	mm, data, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("tiered: mapping segment %s: %w", filepath.Base(path), err)
	}
	s := &Segment{path: path, seq: seq, geo: geo, mm: mm, data: data, fileBytes: size}
	if err := s.parse(); err != nil {
		mm.close()
		return nil, fmt.Errorf("tiered: segment %s: %w", filepath.Base(path), err)
	}
	return s, nil
}

func (s *Segment) parse() error {
	le := binary.LittleEndian
	h := s.data[:segHeaderLen]
	if string(h[:8]) != segMagic {
		return fmt.Errorf("bad magic %q", h[:8])
	}
	if v := le.Uint32(h[8:]); v != segVersion {
		return fmt.Errorf("unsupported version %d", v)
	}
	if got, want := crc32.Checksum(h[:56], castagnoli), le.Uint32(h[56:]); got != want {
		return fmt.Errorf("header CRC mismatch")
	}
	got := geometry{m: le.Uint32(h[12:]), k: le.Uint32(h[16:]), bands: le.Uint32(h[24:]), seedFP: le.Uint64(h[40:])}
	if got != s.geo {
		return fmt.Errorf("geometry mismatch: segment written under m=%d k=%d bands=%d seed %#x, index is m=%d k=%d bands=%d seed %#x",
			got.m, got.k, got.bands, got.seedFP, s.geo.m, s.geo.k, s.geo.bands, s.geo.seedFP)
	}
	s.words = int(le.Uint32(h[20:]))
	if s.words != s.geo.words() {
		return fmt.Errorf("word count %d does not match m=%d", s.words, s.geo.m)
	}
	s.stride = 8 * (1 + s.words)
	bucketCount := int(le.Uint32(h[28:]))
	entries := le.Uint64(h[32:])
	records := le.Uint64(h[48:])
	if records > 1<<31-1 {
		return fmt.Errorf("record count %d out of range", records)
	}
	want := int64(segHeaderLen) + int64(segDirEntLen)*int64(bucketCount) + int64(s.stride)*int64(records) + 4
	if int64(len(s.data)) != want {
		return fmt.Errorf("size %d does not match header (want %d)", len(s.data), want)
	}
	body := s.data[segHeaderLen : len(s.data)-4]
	if got, want := crc32.Checksum(body, castagnoli), le.Uint32(s.data[len(s.data)-4:]); got != want {
		return fmt.Errorf("body CRC mismatch")
	}

	s.postOff = segHeaderLen + segDirEntLen*bucketCount
	s.records = int(records)
	s.dir = make([]dirEnt, bucketCount)
	off := segHeaderLen
	var prev dirEnt
	for i := range s.dir {
		start, count := le.Uint64(s.data[off+16:]), le.Uint64(s.data[off+24:])
		if start+count > records {
			return fmt.Errorf("directory entry %d out of range", i)
		}
		d := dirEnt{
			band:  le.Uint32(s.data[off:]),
			key:   le.Uint64(s.data[off+8:]),
			start: int32(start),
			count: int32(count),
		}
		if d.band >= s.geo.bands {
			return fmt.Errorf("directory entry %d names band %d of %d", i, d.band, s.geo.bands)
		}
		if i > 0 && (d.band < prev.band || (d.band == prev.band && d.key <= prev.key)) {
			return fmt.Errorf("directory not sorted at entry %d", i)
		}
		s.dir[i] = d
		prev = d
		off += segDirEntLen
	}

	s.byID = make(map[uint64]int32, entries)
	for r := 0; r < s.records; r++ {
		id := le.Uint64(s.data[s.postOff+r*s.stride:])
		if _, ok := s.byID[id]; !ok {
			s.byID[id] = int32(r)
		}
	}
	if uint64(len(s.byID)) != entries {
		return fmt.Errorf("entry count mismatch: header says %d, postings hold %d", entries, len(s.byID))
	}
	return nil
}

// Entries is the unique-id count of the segment.
func (s *Segment) Entries() int { return len(s.byID) }

// Lookup returns the first record ordinal holding id.
func (s *Segment) Lookup(id uint64) (int, bool) {
	rec, ok := s.byID[id]
	return int(rec), ok
}

// Bucket returns the postings list of (band, key), empty if the segment has
// no such bucket. Binary search over the (band, key)-sorted directory.
func (s *Segment) Bucket(band int, key uint64) Postings {
	i := sort.Search(len(s.dir), func(i int) bool {
		d := &s.dir[i]
		return d.band > uint32(band) || (d.band == uint32(band) && d.key >= key)
	})
	if i < len(s.dir) && s.dir[i].band == uint32(band) && s.dir[i].key == key {
		return Postings{seg: s, start: int(s.dir[i].start), n: int(s.dir[i].count)}
	}
	return Postings{}
}

// RecordWords returns the packed summary words of record rec — see
// Postings.Words for the scratch contract.
func (s *Segment) RecordWords(rec int, scratch []uint64) []uint64 {
	return s.wordsAt(s.postOff+rec*s.stride+8, scratch)
}

func (s *Segment) close() error { return s.mm.close() }

// hostLittleEndian gates the zero-copy word view: on little-endian hosts
// the on-disk word layout is the in-memory one.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wordsAt returns the record's words as a []uint64. On little-endian hosts
// this reinterprets the mapped bytes in place — the mmap base is page-
// aligned (the fallback buffer is []uint64-backed) and off is always a
// multiple of 8, so the view is aligned; scratch is untouched. Elsewhere it
// decodes into scratch, which must have capacity for the segment's word
// count.
func (s *Segment) wordsAt(off int, scratch []uint64) []uint64 {
	b := s.data[off : off+8*s.words]
	if hostLittleEndian {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), s.words)
	}
	scratch = scratch[:s.words]
	for i := range scratch {
		scratch[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return scratch
}

// Postings is one bucket's postings list: a contiguous run of fixed-stride
// records scanned sequentially. The zero value is an empty list.
type Postings struct {
	seg   *Segment
	start int
	n     int
}

// Len is the record count of the list.
func (p Postings) Len() int { return p.n }

// ID returns the photo id of record i.
func (p Postings) ID(i int) uint64 {
	return binary.LittleEndian.Uint64(p.seg.data[p.seg.postOff+(p.start+i)*p.seg.stride:])
}

// Words returns the packed summary words of record i, zero-copy where the
// host allows (see wordsAt).
func (p Postings) Words(i int, scratch []uint64) []uint64 {
	return p.seg.wordsAt(p.seg.postOff+(p.start+i)*p.seg.stride+8, scratch)
}

// Bytes is the on-disk size of the list — what one sequential scan of the
// bucket reads.
func (p Postings) Bytes() int64 {
	if p.seg == nil {
		return 0
	}
	return int64(p.n) * int64(p.seg.stride)
}
