package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/fastrepro/fast/internal/bloom"
)

// cloneViaSnapshot round-trips an engine through its serialized form,
// producing an independent engine sharing the same trained basis — the
// exact relationship two cluster shards have.
func cloneViaSnapshot(t *testing.T, e *Engine) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	cp, err := ReadEngine(&buf)
	if err != nil {
		t.Fatalf("ReadEngine: %v", err)
	}
	return cp
}

// TestSummaryTransferByteIdentical moves entries between engines via
// SummaryOf/InsertSummary and checks the receiver answers queries
// byte-identically to an engine that indexed the photos natively.
func TestSummaryTransferByteIdentical(t *testing.T) {
	ds := testDatasetCached(t)
	oracle := builtEngine(t, ds) // indexed everything natively

	// The receiver starts as a clone missing the back half of the corpus.
	donor := cloneViaSnapshot(t, oracle)
	recv := cloneViaSnapshot(t, oracle)
	half := len(ds.Photos) / 2
	for _, p := range ds.Photos[half:] {
		if err := recv.Delete(p.ID); err != nil {
			t.Fatalf("Delete(%d): %v", p.ID, err)
		}
	}

	// Adopt the missing entries from the donor, summaries only.
	for _, p := range ds.Photos[half:] {
		sp, ok := donor.SummaryOf(p.ID)
		if !ok {
			t.Fatalf("SummaryOf(%d): absent from donor", p.ID)
		}
		// Mutating the returned copy must not corrupt the donor.
		if len(sp.Bits) > 0 {
			save := sp.Bits[0]
			sp.Bits[0] ^= 0xfff
			again, _ := donor.SummaryOf(p.ID)
			if len(again.Bits) > 0 && again.Bits[0] != save {
				t.Fatal("SummaryOf returned a summary aliasing donor storage")
			}
			sp.Bits[0] = save
		}
		if err := recv.InsertSummary(p.ID, sp); err != nil {
			t.Fatalf("InsertSummary(%d): %v", p.ID, err)
		}
	}
	if recv.Len() != oracle.Len() {
		t.Fatalf("receiver has %d photos, want %d", recv.Len(), oracle.Len())
	}

	for qi, p := range ds.Photos {
		if qi%7 != 0 {
			continue
		}
		want, err := oracle.Query(p.Img, 20)
		if err != nil {
			t.Fatalf("oracle query: %v", err)
		}
		got, err := recv.Query(p.Img, 20)
		if err != nil {
			t.Fatalf("receiver query: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", p.ID, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d: got %+v, want %+v", p.ID, i, got[i], want[i])
			}
		}
	}

	// Duplicate adoption must be refused, not silently doubled.
	sp, _ := donor.SummaryOf(ds.Photos[0].ID)
	if err := recv.InsertSummary(ds.Photos[0].ID, sp); err == nil {
		t.Fatal("InsertSummary of an already-indexed id should fail")
	}
	if _, ok := oracle.SummaryOf(^uint64(0)); ok {
		t.Fatal("SummaryOf of an absent id should report false")
	}
	if err := recv.InsertSummary(42424242, nil); err == nil {
		t.Fatal("InsertSummary(nil) should fail")
	}
}

// TestInsertSummaryRejectsInvalid breaks one rule of a valid summary per
// case — geometry, strictly increasing positions, positions below m — and
// each must be refused by its own check before anything is indexed.
func TestInsertSummaryRejectsInvalid(t *testing.T) {
	e := builtEngine(t, testDatasetCached(t))
	valid, ok := e.SummaryOf(testDatasetCached(t).Photos[0].ID)
	if !ok || len(valid.Bits) < 2 {
		t.Fatalf("need a stored summary with ≥ 2 bits, got %v", valid)
	}
	const id = 42424243
	n := e.Len()
	for _, tc := range []struct {
		name, want string
		mutate     func(s *bloom.Sparse)
	}{
		{"m differs", "geometry", func(s *bloom.Sparse) { s.M *= 2 }},
		{"k differs", "geometry", func(s *bloom.Sparse) { s.K++ }},
		{"unsorted positions", "strictly increasing", func(s *bloom.Sparse) { s.Bits[0], s.Bits[1] = s.Bits[1], s.Bits[0] }},
		{"repeated position", "strictly increasing", func(s *bloom.Sparse) { s.Bits[1] = s.Bits[0] }},
		{"position ≥ m", "≥ m", func(s *bloom.Sparse) { s.Bits[len(s.Bits)-1] = s.M }},
	} {
		s := &bloom.Sparse{M: valid.M, K: valid.K, Bits: append([]uint32(nil), valid.Bits...)}
		tc.mutate(s)
		err := e.InsertSummary(id, s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: InsertSummary = %v, want the %q check", tc.name, err, tc.want)
		}
		if e.Contains(id) || e.Len() != n {
			t.Fatalf("%s: rejected summary reached the index", tc.name)
		}
	}
	// Control: the unmutated summary under the same id is accepted.
	if err := e.InsertSummary(id, valid); err != nil {
		t.Fatalf("valid summary refused: %v", err)
	}
}
