package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/workload"
)

var (
	fuzzSeedOnce sync.Once
	fuzzSeedSnap []byte
)

// fuzzSeedSnapshot builds one small valid container snapshot for seeding.
//
// The seed's length bounds how fast the fuzzer runs. Every new interesting
// input is minimized, which costs time quadratic in its length, and Go's
// default minimization budget (60 s) outlasts a short fuzzing run: from a
// seed of kilobytes, every worker is minimizing within seconds and no
// further inputs are executed. An engine's PCA section alone is kilobytes
// (the mean and each basis row are feature.GradPatchDim float64s), so the
// seed takes a tiny engine's config and entries sections and replaces its
// PCA section with a 1×1 basis, which ReadEngine accepts like any other.
func fuzzSeedSnapshot(tb testing.TB) []byte {
	fuzzSeedOnce.Do(func() {
		ds, err := workload.Generate(workload.Spec{
			Name: "core-fuzz", Scenes: 2, Photos: 2, Subjects: 2,
			SubjectRate: 0.25, Resolution: 24, Seed: 3, SceneBase: 50,
		})
		if err != nil {
			return
		}
		e := NewEngine(Config{PCADim: 1})
		if _, err := e.Build(ds.Photos); err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			return
		}
		snap := buf.Bytes()
		const pcaLenOff = offSectionTab + 16 + 4 // section 1's length field
		pcaEnd := offPCADims + binary.LittleEndian.Uint64(snap[pcaLenOff:])
		var pca bytes.Buffer
		if err := writeFields(&pca, int32(1), int32(1), float64(0), float64(1)); err != nil {
			return
		}
		seed := append(bytes.Clone(snap[:offPCADims]), pca.Bytes()...)
		seed = append(seed, snap[pcaEnd:]...)
		binary.LittleEndian.PutUint64(seed[pcaLenOff:], uint64(pca.Len()))
		seed, ok := reseal(seed)
		if !ok {
			return
		}
		if _, err := ReadEngine(bytes.NewReader(seed)); err != nil {
			return
		}
		fuzzSeedSnap = seed
	})
	if fuzzSeedSnap == nil {
		tb.Skip("seed snapshot construction failed")
	}
	return fuzzSeedSnap
}

// FuzzReadEngine throws arbitrary bytes at the snapshot deserializer, both
// as given and — when the section table parses — resealed with valid CRCs,
// so mutated payload bytes reach the section decoders rather than stopping
// at the checksum. The invariants: never panic, never return a half-built
// engine on error, and any accepted snapshot must itself round-trip —
// written back out and re-read, it yields an engine of the same size.
func FuzzReadEngine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FASTIDX1"))
	f.Add([]byte("FASTSNP1"))
	f.Add([]byte("NOTMAGIC--------"))
	seed := fuzzSeedSnapshot(f)
	f.Add(seed)
	// A truncated and a bit-flipped variant, to seed the mutation space
	// near the interesting boundaries.
	f.Add(seed[:len(seed)/2])
	flipped := bytes.Clone(seed)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		if failpoint.Enabled(failpoint.CoreSnapshotRead) {
			t.Skip("failpoints armed externally")
		}
		checkReadEngine(t, data)
		if sealed, ok := reseal(data); ok {
			checkReadEngine(t, sealed)
		}
	})
}

// checkReadEngine asserts FuzzReadEngine's invariants on one input.
func checkReadEngine(t *testing.T, data []byte) {
	t.Helper()
	e, err := ReadEngine(bytes.NewReader(data))
	if err != nil {
		if e != nil {
			t.Fatal("error return carried a non-nil engine")
		}
		return
	}
	var out bytes.Buffer
	if _, err := e.WriteTo(&out); err != nil {
		t.Fatalf("re-serializing accepted snapshot: %v", err)
	}
	back, err := ReadEngine(&out)
	if err != nil {
		t.Fatalf("re-reading accepted snapshot: %v", err)
	}
	if back.Len() != e.Len() {
		t.Fatalf("round trip changed Len: %d -> %d", e.Len(), back.Len())
	}
}

// sanity pin: ErrBadSnapshot classification never regresses under the
// fuzz corpus's truncation seeds.
func TestFuzzSeedsClassifyAsBadSnapshot(t *testing.T) {
	seed := fuzzSeedSnapshot(t)
	for cut := 0; cut < len(seed); cut += len(seed)/64 + 1 {
		if _, err := ReadEngine(bytes.NewReader(seed[:cut])); err != nil && !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("cut at %d: %v is not ErrBadSnapshot", cut, err)
		}
	}
}
