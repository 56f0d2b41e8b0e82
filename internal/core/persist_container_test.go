package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"github.com/fastrepro/fast/internal/failpoint"
)

var (
	containerSnapOnce sync.Once
	containerSnap     []byte
)

// containerSnapshot serializes the shared test engine in the checksummed
// container format once per test binary.
func containerSnapshot(t *testing.T) []byte {
	t.Helper()
	containerSnapOnce.Do(func() {
		ds := testDatasetCached(t)
		e := builtEngine(t, ds)
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		containerSnap = buf.Bytes()
	})
	if containerSnap == nil {
		t.Fatal("snapshot construction failed in an earlier test")
	}
	return containerSnap
}

// Every single-byte corruption of a container snapshot must be rejected
// with ErrBadSnapshot — that is the point of the per-section CRCs. The
// sweep samples the payload (stride) but covers the header densely.
func TestContainerDetectsEveryByteFlip(t *testing.T) {
	snap := containerSnapshot(t)
	headerLen := offConfig
	check := func(off int) {
		mut := bytes.Clone(snap)
		mut[off] ^= 0x40
		_, err := ReadEngine(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("byte flip at offset %d accepted", off)
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("byte flip at offset %d: error %v does not wrap ErrBadSnapshot", off, err)
		}
	}
	for off := 0; off < headerLen; off++ {
		check(off)
	}
	stride := len(snap) / 257
	if stride < 1 {
		stride = 1
	}
	for off := headerLen; off < len(snap); off += stride {
		check(off)
	}
	check(len(snap) - 1)
}

// Every truncation of a container snapshot must be rejected: the section
// lengths live in the header, so a torn tail can never decode.
func TestContainerDetectsTruncation(t *testing.T) {
	snap := containerSnapshot(t)
	cuts := []int{0, 1, 7, 8, 9, 15, 16, 20, 40, offConfig - 1}
	for _, frac := range []float64{0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999} {
		cuts = append(cuts, int(float64(len(snap))*frac))
	}
	cuts = append(cuts, len(snap)-1)
	for _, cut := range cuts {
		if cut >= len(snap) {
			continue
		}
		_, err := ReadEngine(bytes.NewReader(snap[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(snap))
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrBadSnapshot", cut, err)
		}
	}
	// Trailing junk is equally a framing violation.
	if _, err := ReadEngine(bytes.NewReader(append(bytes.Clone(snap), 0))); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("trailing byte: %v", err)
	}
}

// Failpoints at the snapshot write sites surface as errors from WriteTo,
// and the read site surfaces as a non-ErrBadSnapshot error (an I/O
// failure, not corruption).
func TestSnapshotWriteFailpoints(t *testing.T) {
	ds := testDatasetCached(t)
	e := builtEngine(t, ds)
	t.Cleanup(failpoint.Reset)

	failpoint.Reset()
	failpoint.Enable(failpoint.CoreSnapshotWriteHeader, failpoint.Policy{Action: failpoint.Error})
	if _, err := e.WriteTo(&bytes.Buffer{}); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("header failpoint: %v", err)
	}

	failpoint.Reset()
	// Fail the second section write; the stream stops mid-container.
	failpoint.Enable(failpoint.CoreSnapshotWriteSection, failpoint.Policy{Action: failpoint.Error, Skip: 1})
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("section failpoint: %v", err)
	}

	failpoint.Reset()
	failpoint.Enable(failpoint.CoreSnapshotRead, failpoint.Policy{Action: failpoint.Error})
	_, err := ReadEngine(bytes.NewReader(containerSnapshot(t)))
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("read failpoint: %v", err)
	}
	if errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("injected read error misclassified as corruption: %v", err)
	}
}
