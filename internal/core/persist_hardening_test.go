package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// Snapshot layout offsets (little-endian), mirroring WriteTo. The container
// header and the config section are fixed-width, so field offsets are
// compile-time constants; the PCA section and entry records are walked with
// the sizes read from the file.
const (
	offMagic       = 0
	offSectionTab  = 16                 // 3 × (id uint32, length uint64, crc32 uint32)
	offHeaderCRC   = offSectionTab + 48 // uint32 over every byte before it
	offConfig      = offHeaderCRC + 4   // first section payload
	offSummaryBits = offConfig + 0      // uint32
	offSummaryK    = offConfig + 4      // int32
	offSubVector   = offConfig + 8      // int32
	offGranularity = offConfig + 12     // float64
	offBands       = offConfig + 20     // int32
	offRows        = offConfig + 24     // int32
	offSeed        = offConfig + 28     // int64
	offTableCap    = offConfig + 36     // int64
	offNeighbor    = offConfig + 44     // int32
	offMinScore    = offConfig + 48     // float64
	offGroupExpand = offConfig + 56     // int32
	offPCADims     = offConfig + 60     // int32 inDim, int32 outDim
)

// reseal returns a copy of snap with every section CRC and the header CRC
// recomputed over the bytes present, so a field corrupted on purpose
// reaches its section decoder instead of failing the checksum first. ok is
// false when the section table does not parse: the header is short or the
// sections it declares overrun the data.
func reseal(snap []byte) (out []byte, ok bool) {
	if len(snap) < offConfig {
		return nil, false
	}
	out = bytes.Clone(snap)
	off := uint64(offConfig)
	for i := 0; i < 3; i++ {
		ent := offSectionTab + 16*i
		n := binary.LittleEndian.Uint64(out[ent+4:])
		if n > uint64(len(out))-off {
			return nil, false
		}
		put32(out, ent+12, crc32.Checksum(out[off:off+n], crcTable))
		off += n
	}
	put32(out, offHeaderCRC, crc32.Checksum(out[:offHeaderCRC], crcTable))
	return out, true
}

// snapLayout locates the variable-offset landmarks of a snapshot: the entry
// count field and the start of each entry record.
type snapLayout struct {
	countOff   int
	count      int64
	entryOffs  []int // offset of each entry's id field
	entrySizes []int
}

func layoutOf(t *testing.T, snap []byte) snapLayout {
	t.Helper()
	inDim := int(int32(binary.LittleEndian.Uint32(snap[offPCADims:])))
	outDim := int(int32(binary.LittleEndian.Uint32(snap[offPCADims+4:])))
	var l snapLayout
	l.countOff = offPCADims + 8 + 8*inDim + 8*inDim*outDim
	l.count = int64(binary.LittleEndian.Uint64(snap[l.countOff:]))
	off := l.countOff + 8
	for i := int64(0); i < l.count; i++ {
		nbits := int(int32(binary.LittleEndian.Uint32(snap[off+16:])))
		size := 8 + 4 + 4 + 4 + 4*nbits
		l.entryOffs = append(l.entryOffs, off)
		l.entrySizes = append(l.entrySizes, size)
		off += size
	}
	if off != len(snap) {
		t.Fatalf("layout walk ended at %d of %d bytes", off, len(snap))
	}
	return l
}

func put32(b []byte, off int, v uint32)   { binary.LittleEndian.PutUint32(b[off:], v) }
func put64(b []byte, off int, v uint64)   { binary.LittleEndian.PutUint64(b[off:], v) }
func putF64(b []byte, off int, v float64) { put64(b, off, math.Float64bits(v)) }

func TestReadEnginePristineControl(t *testing.T) {
	snap := containerSnapshot(t)
	e, err := ReadEngine(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	if e.Len() == 0 {
		t.Fatal("pristine snapshot loaded empty")
	}
}

// TestReadEngineRejectsMutilatedSnapshots corrupts a valid snapshot in a
// table of targeted ways and reseals it; every mutation must fail cleanly
// with a wrapped ErrBadSnapshot from the decoder check named by want — no
// panic, no silent misread, and no "crc mismatch" standing in for the check.
func TestReadEngineRejectsMutilatedSnapshots(t *testing.T) {
	snap := containerSnapshot(t)
	l := layoutOf(t, snap)
	multi := 0 // first entry with at least two positions
	for l.entrySizes[multi] < 20+2*4 {
		multi++
	}
	firstPos := l.entryOffs[multi] + 20 // after id, m, k, nbits

	cases := []struct {
		name   string
		want   string
		mutate func(b []byte) []byte
	}{
		{"magic flipped", "bad magic", func(b []byte) []byte { b[offMagic] ^= 0xFF; return b }},
		{"summary bits zero", "summary.bits", func(b []byte) []byte { put32(b, offSummaryBits, 0); return b }},
		{"summary bits absurd", "summary.bits", func(b []byte) []byte { put32(b, offSummaryBits, 1<<28); return b }},
		{"summary k zero", "summary.k", func(b []byte) []byte { put32(b, offSummaryK, 0); return b }},
		{"summary k negative", "summary.k", func(b []byte) []byte { put32(b, offSummaryK, uint32(0xFFFFFFFF)); return b }},
		{"subvector negative", "summary.subvector", func(b []byte) []byte { put32(b, offSubVector, uint32(0xFFFFFFF0)); return b }},
		{"granularity NaN", "summary.granularity", func(b []byte) []byte { putF64(b, offGranularity, math.NaN()); return b }},
		{"granularity negative", "summary.granularity", func(b []byte) []byte { putF64(b, offGranularity, -0.5); return b }},
		{"bands zero", "lsh.bands", func(b []byte) []byte { put32(b, offBands, 0); return b }},
		{"rows negative", "lsh.rows", func(b []byte) []byte { put32(b, offRows, uint32(0xFFFFFFFF)); return b }},
		{"table capacity negative", "table.capacity", func(b []byte) []byte { put64(b, offTableCap, uint64(0xFFFFFFFFFFFFFFFF)); return b }},
		{"table capacity absurd", "table.capacity", func(b []byte) []byte { put64(b, offTableCap, 1<<40); return b }},
		{"neighborhood negative", "table.neighborhood", func(b []byte) []byte { put32(b, offNeighbor, uint32(0xFFFFFFFE)); return b }},
		{"minscore NaN", "minscore", func(b []byte) []byte { putF64(b, offMinScore, math.NaN()); return b }},
		{"minscore out of range", "minscore", func(b []byte) []byte { putF64(b, offMinScore, 4.0); return b }},
		{"groupexpand absurd", "groupexpand", func(b []byte) []byte { put32(b, offGroupExpand, 1<<24); return b }},
		{"pca indim huge", "pca", func(b []byte) []byte { put32(b, offPCADims, 1<<19); return b }},
		{"pca outdim > indim", "pca dims", func(b []byte) []byte { put32(b, offPCADims+4, 1<<20); return b }},
		{"entry count negative", "entry count", func(b []byte) []byte { put64(b, l.countOff, uint64(0xFFFFFFFFFFFFFFFF)); return b }},
		{"entry count overclaims", fmt.Sprintf("entry %d header", l.count), func(b []byte) []byte {
			put64(b, l.countOff, uint64(l.count)+5)
			return b
		}},
		{"entry count underclaims leaves trailing data", "undecoded bytes", func(b []byte) []byte {
			put64(b, l.countOff, uint64(l.count)-1)
			return b
		}},
		{"entry geometry mismatch", "geometry", func(b []byte) []byte {
			put32(b, l.entryOffs[0]+8, 64) // m no longer matches config bits
			return b
		}},
		{"entry nbits exceeds m", "bits of", func(b []byte) []byte {
			// Claim more set bits than the filter has.
			put32(b, l.entryOffs[len(l.entryOffs)-1]+16, 1<<26)
			return b
		}},
		{"unsorted positions", "strictly increasing", func(b []byte) []byte {
			p0 := binary.LittleEndian.Uint32(b[firstPos:])
			put32(b, firstPos, binary.LittleEndian.Uint32(b[firstPos+4:]))
			put32(b, firstPos+4, p0)
			return b
		}},
		{"position ≥ m", "≥ m", func(b []byte) []byte {
			last := l.entryOffs[multi] + l.entrySizes[multi] - 4
			put32(b, last, binary.LittleEndian.Uint32(b[offSummaryBits:]))
			return b
		}},
		{"duplicate photo id", "repeats photo id", func(b []byte) []byte {
			id0 := binary.LittleEndian.Uint64(b[l.entryOffs[0]:])
			put64(b, l.entryOffs[1], id0)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, ok := reseal(tc.mutate(bytes.Clone(snap)))
			if !ok {
				t.Fatal("mutated snapshot's section table does not parse")
			}
			e, err := ReadEngine(bytes.NewReader(b))
			if err == nil {
				t.Fatalf("mutated snapshot accepted (engine len %d)", e.Len())
			}
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error not wrapped as ErrBadSnapshot: %v", err)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "crc mismatch") {
				t.Fatalf("error %q does not come from the %q check", msg, tc.want)
			}
		})
	}
}

// TestReadEngineTruncationSweep cuts the snapshot at every structural
// boundary plus a byte-level sweep of the header; each prefix must be
// rejected (the full file is the only acceptable length).
func TestReadEngineTruncationSweep(t *testing.T) {
	snap := containerSnapshot(t)
	l := layoutOf(t, snap)

	cuts := map[string]int{
		"empty":             0,
		"mid magic":         4,
		"after magic":       8,
		"mid section table": offSectionTab + 20,
		"before header crc": offHeaderCRC,
		"mid config":        offConfig + 22,
		"after config":      offPCADims,
		"mid pca dims":      offPCADims + 5,
		"mid pca data":      offPCADims + 8 + 13,
		"before count":      l.countOff,
		"mid count":         l.countOff + 3,
		"mid entry header":  l.entryOffs[0] + 10,
		"mid entry bits":    l.entryOffs[0] + l.entrySizes[0] - 2,
		"before last entry": l.entryOffs[len(l.entryOffs)-1],
		"one byte short":    len(snap) - 1,
	}
	for name, cut := range cuts {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadEngine(bytes.NewReader(snap[:cut])); err == nil {
				t.Fatalf("truncation at %d/%d accepted", cut, len(snap))
			} else if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("truncation error not wrapped as ErrBadSnapshot: %v", err)
			}
		})
	}
}

// TestReadEngineShortReads feeds the snapshot through a reader that
// delivers one byte at a time, proving the decoder tolerates arbitrarily
// fragmented reads (network restores see these).
func TestReadEngineShortReads(t *testing.T) {
	snap := containerSnapshot(t)
	e, err := ReadEngine(oneByteReader{r: bytes.NewReader(snap)})
	if err != nil {
		t.Fatalf("fragmented read rejected: %v", err)
	}
	if e.Len() == 0 {
		t.Fatal("fragmented read loaded empty")
	}
}

type oneByteReader struct{ r *bytes.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}
