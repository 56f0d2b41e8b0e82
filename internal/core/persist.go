package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/feature"
	"github.com/fastrepro/fast/internal/linalg"
	"github.com/fastrepro/fast/internal/lsh"
)

// The on-disk index format. FAST is "a system middleware that can run on
// existing systems ... by using the general file system interface", so the
// engine can persist its index — the PCA basis plus every photo's sparse
// summary — and rebuild the in-memory LSH tables and cuckoo storage on
// load. Summaries dominate the file and they are exactly the paper's
// space-efficient representation, so snapshots stay small (tens of bytes
// per photo).
//
// The snapshot is a checksummed container (magic "FASTSNP1",
// little-endian) around three section encodings — every section's length
// and CRC32 sit in the header, so a torn write, a flipped bit, or a short
// read is detected before any of the payload is trusted:
//
//	magic    [8]byte  "FASTSNP1"
//	version  uint32 (1)
//	sections uint32 (3)
//	table    per section: id uint32, length uint64, crc32 uint32
//	hdrcrc   uint32   CRC32 of every header byte above
//	payloads the three section encodings, concatenated:
//	  config   summary geometry, LSH params, table params
//	  pca      input dim, output dim, mean, basis rows
//	  entries  count, then per entry: id, bit count, bits
//
// WriteTo emits it; ReadEngine rejects any other magic.
const (
	containerMagic = "FASTSNP1"

	containerVersion = 1

	sectionConfig  = 1
	sectionPCA     = 2
	sectionEntries = 3
)

// ErrBadSnapshot is wrapped by every error ReadEngine returns for a
// malformed, truncated or internally inconsistent snapshot, so callers
// (the daemon's bootstrap, fastctl restore) can distinguish corrupt input
// from I/O failure with errors.Is.
var ErrBadSnapshot = errors.New("core: corrupt or incompatible index snapshot")

// errBadSnapshot is the historical unexported name; kept as an alias so
// existing wrapping sites read naturally.
var errBadSnapshot = ErrBadSnapshot

// crcTable is the polynomial every snapshot checksum uses (Castagnoli,
// hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteTo serializes the engine's index as a checksummed snapshot
// container. It implements io.WriterTo.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.pcasift == nil {
		return 0, errors.New("core: cannot persist an unbuilt engine")
	}

	// Sections are buffered so their lengths and CRCs can sit in the
	// header, ahead of the payload — that is what lets the reader detect a
	// torn tail before trusting any byte. Entries dominate and are tens of
	// bytes per photo, so the buffering is at most a few MB per million
	// photos.
	var cfgBuf, pcaBuf, entBuf bytes.Buffer
	if err := e.appendConfigSection(&cfgBuf); err != nil {
		return 0, err
	}
	if err := e.appendPCASection(&pcaBuf); err != nil {
		return 0, err
	}
	if err := e.appendEntriesSection(&entBuf); err != nil {
		return 0, err
	}
	payloads := [...][]byte{cfgBuf.Bytes(), pcaBuf.Bytes(), entBuf.Bytes()}
	ids := [...]uint32{sectionConfig, sectionPCA, sectionEntries}

	var hdr bytes.Buffer
	hdr.WriteString(containerMagic)
	binary.Write(&hdr, binary.LittleEndian, uint32(containerVersion))
	binary.Write(&hdr, binary.LittleEndian, uint32(len(payloads)))
	for i, p := range payloads {
		binary.Write(&hdr, binary.LittleEndian, ids[i])
		binary.Write(&hdr, binary.LittleEndian, uint64(len(p)))
		binary.Write(&hdr, binary.LittleEndian, crc32.Checksum(p, crcTable))
	}
	binary.Write(&hdr, binary.LittleEndian, crc32.Checksum(hdr.Bytes(), crcTable))

	cw := &countingWriter{w: bufio.NewWriter(w)}
	if err := failpoint.Eval(failpoint.CoreSnapshotWriteHeader); err != nil {
		return 0, fmt.Errorf("core: writing snapshot header: %w", err)
	}
	if _, err := cw.Write(hdr.Bytes()); err != nil {
		return cw.n, err
	}
	for _, p := range payloads {
		if err := failpoint.Eval(failpoint.CoreSnapshotWriteSection); err != nil {
			return cw.n, fmt.Errorf("core: writing snapshot section: %w", err)
		}
		if _, err := cw.Write(p); err != nil {
			return cw.n, err
		}
	}
	if bw, ok := cw.w.(*bufio.Writer); ok {
		if err := bw.Flush(); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// writeFields writes vs in order, little-endian.
func writeFields(w io.Writer, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// appendConfigSection encodes the engine configuration. Callers hold the
// read lock.
func (e *Engine) appendConfigSection(w io.Writer) error {
	cfg := e.cfg
	// Serialize the *effective* LSH geometry (engine withDefaults leaves
	// cfg.LSH raw; lsh.NewMinHash resolves zeros), so every field in the
	// header is a concrete value the read-side validator can bound-check.
	lshp := cfg.LSH
	if e.index != nil {
		lshp = e.index.Params()
	}
	return writeFields(w,
		uint32(cfg.Summary.Bits), int32(cfg.Summary.K), int32(cfg.Summary.SubVector), cfg.Summary.Granularity,
		int32(lshp.Bands), int32(lshp.Rows), lshp.Seed,
		int64(cfg.TableCapacity), int32(cfg.Neighborhood), cfg.MinScore, int32(cfg.GroupExpand),
	)
}

// appendPCASection encodes the trained PCA basis. Callers hold the read
// lock.
func (e *Engine) appendPCASection(w io.Writer) error {
	mean, basis := e.pcasift.Basis()
	if err := writeFields(w, int32(len(mean)), int32(basis.Rows)); err != nil {
		return err
	}
	if err := writeFields(w, mean); err != nil {
		return err
	}
	return writeFields(w, basis.Data)
}

// appendEntriesSection encodes the live index entries. Callers hold the
// read lock.
func (e *Engine) appendEntriesSection(w io.Writer) error {
	// Deletion tombstones (nil summaries) are skipped, which also compacts
	// the snapshot.
	live := int64(0)
	for _, ent := range e.entries {
		if ent.summary != nil {
			live++
		}
	}
	if err := writeFields(w, live); err != nil {
		return err
	}
	for _, ent := range e.entries {
		if ent.summary == nil {
			continue
		}
		if err := writeFields(w, ent.id, uint32(ent.summary.M), int32(ent.summary.K), int32(len(ent.summary.Bits))); err != nil {
			return err
		}
		if err := writeFields(w, ent.summary.Bits); err != nil {
			return err
		}
	}
	return nil
}

// ReadEngine deserializes a snapshot container, rebuilding the LSH tables
// and flat cuckoo storage.
func ReadEngine(r io.Reader) (*Engine, error) {
	if err := failpoint.Eval(failpoint.CoreSnapshotRead); err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(containerMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadSnapshot, err)
	}
	if string(magic) != containerMagic {
		return nil, fmt.Errorf("%w: bad magic %q", errBadSnapshot, magic)
	}
	return readContainer(br)
}

// sectionBounds caps the claimed length of each container section before
// any of it is read, so a corrupt header cannot command absurd I/O.
var sectionBounds = map[uint32]uint64{
	sectionConfig:  1 << 10,
	sectionPCA:     1 << 33, // dominated by the 1<<26-element basis bound
	sectionEntries: 1 << 40,
}

// readContainer decodes the checksummed container that follows a
// "FASTSNP1" magic: header table first (validated against its own CRC),
// then each section streamed through a CRC check.
func readContainer(br *bufio.Reader) (*Engine, error) {
	// Re-assemble the header bytes to verify the header CRC.
	var hdr bytes.Buffer
	hdr.WriteString(containerMagic)
	fixed := make([]byte, 8)
	if _, err := io.ReadFull(br, fixed); err != nil {
		return nil, fmt.Errorf("%w: container header: %v", errBadSnapshot, err)
	}
	hdr.Write(fixed)
	version := binary.LittleEndian.Uint32(fixed[0:])
	nsec := binary.LittleEndian.Uint32(fixed[4:])
	if version != containerVersion {
		return nil, fmt.Errorf("%w: unsupported container version %d", errBadSnapshot, version)
	}
	if nsec != 3 {
		return nil, fmt.Errorf("%w: container has %d sections, want 3", errBadSnapshot, nsec)
	}
	table := make([]byte, int(nsec)*16)
	if _, err := io.ReadFull(br, table); err != nil {
		return nil, fmt.Errorf("%w: section table: %v", errBadSnapshot, err)
	}
	hdr.Write(table)
	var wantHdrCRC uint32
	if err := binary.Read(br, binary.LittleEndian, &wantHdrCRC); err != nil {
		return nil, fmt.Errorf("%w: header crc: %v", errBadSnapshot, err)
	}
	if got := crc32.Checksum(hdr.Bytes(), crcTable); got != wantHdrCRC {
		return nil, fmt.Errorf("%w: header crc mismatch (%08x != %08x)", errBadSnapshot, got, wantHdrCRC)
	}

	type sectionMeta struct {
		id     uint32
		length uint64
		crc    uint32
	}
	secs := make([]sectionMeta, nsec)
	for i := range secs {
		off := i * 16
		secs[i] = sectionMeta{
			id:     binary.LittleEndian.Uint32(table[off:]),
			length: binary.LittleEndian.Uint64(table[off+4:]),
			crc:    binary.LittleEndian.Uint32(table[off+12:]),
		}
		wantID := uint32(i + 1) // sectionConfig, sectionPCA, sectionEntries
		if secs[i].id != wantID {
			return nil, fmt.Errorf("%w: section %d has id %d, want %d", errBadSnapshot, i, secs[i].id, wantID)
		}
		if secs[i].length > sectionBounds[wantID] {
			return nil, fmt.Errorf("%w: section %d claims %d bytes", errBadSnapshot, i, secs[i].length)
		}
	}

	// Each section is decoded through a LimitReader teeing into a CRC; the
	// decoder must consume the section exactly and the CRC must match
	// before its content is trusted further.
	var cfg Config
	var pca *feature.PCASIFT
	var eng *Engine
	for _, sec := range secs {
		crc := crc32.New(crcTable)
		lr := &io.LimitedReader{R: br, N: int64(sec.length)}
		sr := bufio.NewReader(io.TeeReader(lr, crc))
		var err error
		switch sec.id {
		case sectionConfig:
			cfg, err = readConfigSection(sr)
		case sectionPCA:
			pca, err = readPCASection(sr)
		case sectionEntries:
			eng, err = readEntriesSection(sr, cfg, pca)
		}
		if err != nil {
			return nil, err
		}
		if _, err := sr.ReadByte(); err != io.EOF {
			return nil, fmt.Errorf("%w: section %d has %d undecoded bytes", errBadSnapshot, sec.id, lr.N+int64(sr.Buffered())+1)
		}
		if got := crc.Sum32(); got != sec.crc {
			return nil, fmt.Errorf("%w: section %d crc mismatch (%08x != %08x)", errBadSnapshot, sec.id, got, sec.crc)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after container", errBadSnapshot)
	}
	return eng, nil
}

// byteReader is the minimal interface the section decoders need.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// readConfigSection decodes and validates the engine configuration.
func readConfigSection(br byteReader) (Config, error) {
	var cfg Config
	var bits uint32
	var k, sub int32
	var gran float64
	var bands, rows int32
	var lshSeed int64
	var tableCap int64
	var nu int32
	var minScore float64
	var groupExpand int32
	read := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := read(&bits, &k, &sub, &gran, &bands, &rows, &lshSeed, &tableCap, &nu, &minScore, &groupExpand); err != nil {
		return cfg, fmt.Errorf("%w: config: %v", errBadSnapshot, err)
	}
	cfg.Summary = bloom.SummaryConfig{Bits: bits, K: int(k), SubVector: int(sub), Granularity: gran}
	cfg.LSH = lsh.MinHashParams{Bands: int(bands), Rows: int(rows), Seed: lshSeed}
	cfg.TableCapacity = int(tableCap)
	cfg.Neighborhood = int(nu)
	cfg.MinScore = minScore
	cfg.GroupExpand = int(groupExpand)
	if err := validateSnapshotConfig(cfg); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// readPCASection decodes the trained basis.
func readPCASection(br byteReader) (*feature.PCASIFT, error) {
	var inDim, outDim int32
	if err := binary.Read(br, binary.LittleEndian, &inDim); err != nil {
		return nil, fmt.Errorf("%w: pca header: %v", errBadSnapshot, err)
	}
	if err := binary.Read(br, binary.LittleEndian, &outDim); err != nil {
		return nil, fmt.Errorf("%w: pca header: %v", errBadSnapshot, err)
	}
	if inDim <= 0 || outDim <= 0 || inDim > 1<<20 || outDim > inDim ||
		int64(inDim)*int64(outDim) > 1<<26 {
		return nil, fmt.Errorf("%w: pca dims %d/%d", errBadSnapshot, inDim, outDim)
	}
	meanData, err := readF64Chunked(br, int(inDim))
	if err != nil {
		return nil, fmt.Errorf("%w: pca mean: %v", errBadSnapshot, err)
	}
	basisData, err := readF64Chunked(br, int(inDim)*int(outDim))
	if err != nil {
		return nil, fmt.Errorf("%w: pca basis: %v", errBadSnapshot, err)
	}
	basis := &linalg.Matrix{Rows: int(outDim), Cols: int(inDim), Data: basisData}
	pca, err := feature.RestorePCASIFT(linalg.Vector(meanData), basis)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadSnapshot, err)
	}
	return pca, nil
}

// readEntriesSection decodes the entry records into a fresh engine built
// around cfg and pca.
func readEntriesSection(br byteReader, cfg Config, pca *feature.PCASIFT) (*Engine, error) {
	var count int64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: entry count: %v", errBadSnapshot, err)
	}
	if count < 0 || count > 1<<40 {
		return nil, fmt.Errorf("%w: entry count %d", errBadSnapshot, count)
	}

	// Decode every entry before sizing the engine's structures: the header
	// count may lie (corruption), and allocating from it would let a small
	// crafted snapshot command a huge table. Decoding first keeps memory
	// proportional to the bytes actually present in the stream — a lying
	// count just runs the stream dry and fails here.
	type rawEntry struct {
		id uint64
		sp *bloom.Sparse
	}
	raw := make([]rawEntry, 0, min(int(count), 1<<16))
	seen := make(map[uint64]struct{}, min(int(count), 1<<16))
	for i := int64(0); i < count; i++ {
		var id uint64
		var m uint32
		var sk, nbits int32
		read := func(vs ...interface{}) error {
			for _, v := range vs {
				if err := binary.Read(br, binary.LittleEndian, v); err != nil {
					return err
				}
			}
			return nil
		}
		if err := read(&id, &m, &sk, &nbits); err != nil {
			return nil, fmt.Errorf("%w: entry %d header: %v", errBadSnapshot, i, err)
		}
		if nbits < 0 || uint32(nbits) > cfg.Summary.Bits {
			return nil, fmt.Errorf("%w: entry %d has %d bits of %d", errBadSnapshot, i, nbits, cfg.Summary.Bits)
		}
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("%w: entry %d repeats photo id %d", errBadSnapshot, i, id)
		}
		seen[id] = struct{}{}
		bitsData, err := readU32Chunked(br, int(nbits))
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d bits: %v", errBadSnapshot, i, err)
		}
		// A stored summary must be one the engine could have written: the
		// configured geometry, positions strictly increasing and below m.
		sp := &bloom.Sparse{M: m, K: int(sk), Bits: bitsData}
		if err := checkSummary(sp, cfg.Summary); err != nil {
			return nil, fmt.Errorf("%w: entry %d %v", errBadSnapshot, i, err)
		}
		raw = append(raw, rawEntry{id: id, sp: sp})
	}

	e := NewEngine(cfg)
	e.pcasift = pca
	if err := e.allocLocked(len(raw)); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadSnapshot, err)
	}
	for i, re := range raw {
		slot := len(e.entries)
		e.entries = append(e.entries, entry{id: re.id, summary: re.sp})
		if len(re.sp.Bits) > 0 {
			if err := e.index.Insert(lsh.ItemID(re.id), re.sp.Bits); err != nil {
				return nil, fmt.Errorf("%w: entry %d lsh insert: %v", errBadSnapshot, i, err)
			}
		}
		if err := e.table.Insert(re.id, uint64(slot)); err != nil {
			return nil, fmt.Errorf("core: restoring entry %d: %w", i, err)
		}
	}
	// The restored engine is not shared yet, but queries may start the moment
	// the caller hot-swaps it in; publish the initial read view now. basisGen
	// starts at 1 so restored summaries key the T1 tier like built ones do.
	e.basisGen++
	e.publishLocked()
	return e, nil
}

// readF64Chunked reads n little-endian float64s in bounded chunks, so a
// lying header cannot command a huge allocation before the stream runs
// dry — truncated input fails after at most one chunk of over-allocation.
func readF64Chunked(r io.Reader, n int) ([]float64, error) {
	const chunk = 1 << 14
	out := make([]float64, 0, min(n, chunk))
	buf := make([]float64, min(n, chunk))
	for len(out) < n {
		c := min(n-len(out), chunk)
		if err := binary.Read(r, binary.LittleEndian, buf[:c]); err != nil {
			return nil, err
		}
		out = append(out, buf[:c]...)
	}
	return out, nil
}

// readU32Chunked is readF64Chunked for uint32 payloads. n == 0 returns a
// non-nil empty slice to preserve the historical round-trip shape of empty
// summaries.
func readU32Chunked(r io.Reader, n int) ([]uint32, error) {
	const chunk = 1 << 15
	out := make([]uint32, 0, min(n, chunk))
	buf := make([]uint32, min(n, chunk))
	for len(out) < n {
		c := min(n-len(out), chunk)
		if err := binary.Read(r, binary.LittleEndian, buf[:c]); err != nil {
			return nil, err
		}
		out = append(out, buf[:c]...)
	}
	return out, nil
}

// validateSnapshotConfig bounds every configuration field read from a
// snapshot header before any of it is used to size allocations, so a
// corrupt header fails with a wrapped ErrBadSnapshot instead of an
// out-of-memory abort or a panic deeper in the constructors.
func validateSnapshotConfig(cfg Config) error {
	bad := func(field string, v interface{}) error {
		return fmt.Errorf("%w: config field %s = %v out of range", errBadSnapshot, field, v)
	}
	s := cfg.Summary
	if s.Bits == 0 || s.Bits > 1<<27 {
		return bad("summary.bits", s.Bits)
	}
	if s.K <= 0 || s.K > 256 {
		return bad("summary.k", s.K)
	}
	if s.SubVector <= 0 || s.SubVector > 1<<16 {
		return bad("summary.subvector", s.SubVector)
	}
	if !(s.Granularity > 0) || s.Granularity > 1e9 { // NaN fails the comparison too
		return bad("summary.granularity", s.Granularity)
	}
	if cfg.LSH.Bands <= 0 || cfg.LSH.Bands > 1<<12 {
		return bad("lsh.bands", cfg.LSH.Bands)
	}
	if cfg.LSH.Rows <= 0 || cfg.LSH.Rows > 1<<12 {
		return bad("lsh.rows", cfg.LSH.Rows)
	}
	// The product sizes the MinHash permutation set; real configurations
	// use a few hundred hash functions, so 1<<16 is generous headroom
	// while keeping a corrupt header from commanding a huge allocation.
	if cfg.LSH.Bands*cfg.LSH.Rows > 1<<16 {
		return bad("lsh.bands*rows", cfg.LSH.Bands*cfg.LSH.Rows)
	}
	if cfg.TableCapacity < 0 || cfg.TableCapacity > 1<<30 {
		return bad("table.capacity", cfg.TableCapacity)
	}
	if cfg.Neighborhood < 0 || cfg.Neighborhood > 1<<16 {
		return bad("table.neighborhood", cfg.Neighborhood)
	}
	if !(cfg.MinScore >= -1 && cfg.MinScore <= 1) { // NaN fails the comparison too
		return bad("minscore", cfg.MinScore)
	}
	if cfg.GroupExpand < -1<<20 || cfg.GroupExpand > 1<<20 {
		return bad("groupexpand", cfg.GroupExpand)
	}
	return nil
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

var _ io.WriterTo = (*Engine)(nil)
