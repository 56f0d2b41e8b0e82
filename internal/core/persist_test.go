package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestPersistRoundTrip(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)

	var buf bytes.Buffer
	n, err := e.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	restored, err := ReadEngine(&buf)
	if err != nil {
		t.Fatalf("ReadEngine: %v", err)
	}
	if restored.Len() != e.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), e.Len())
	}

	// Queries against the restored engine return identical results.
	qs, err := ds.Queries(5, 17)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		orig, err := e.Query(q.Probe, 50)
		if err != nil {
			t.Fatal(err)
		}
		back, err := restored.Query(q.Probe, 50)
		if err != nil {
			t.Fatal(err)
		}
		if len(orig) != len(back) {
			t.Fatalf("query %d: %d vs %d results after restore", qi, len(orig), len(back))
		}
		for i := range orig {
			if orig[i] != back[i] {
				t.Fatalf("query %d result %d differs: %+v vs %+v", qi, i, orig[i], back[i])
			}
		}
	}

	// The restored engine accepts new photos.
	p := ds.FreshPhoto(7_777_777, 3)
	if err := restored.Insert(p); err != nil {
		t.Fatalf("Insert after restore: %v", err)
	}
}

func TestPersistUnbuiltFails(t *testing.T) {
	e := NewEngine(Config{})
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err == nil {
		t.Error("persisting an unbuilt engine should fail")
	}
}

func TestReadEngineRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTANIDX12345678"),
		"truncated": append([]byte("FASTSNP1"), 1, 2, 3),
		// FASTSNP1 is the only format read; any other magic is corrupt.
		"FASTIDX1 prefix": append([]byte("FASTIDX1"), containerSnapshot(t)[8:]...),
	}
	for name, data := range cases {
		if _, err := ReadEngine(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: ReadEngine = %v, want ErrBadSnapshot", name, err)
		}
	}
}

func TestReadEngineRejectsTruncatedSnapshot(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut the snapshot at several points; every cut must fail cleanly.
	for _, frac := range []float64{0.1, 0.5, 0.9, 0.999} {
		cut := int(float64(len(full)) * frac)
		if _, err := ReadEngine(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
}

func TestDeleteRemovesFromQueries(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	victim := ds.Photos[0].ID

	if !e.Contains(victim) {
		t.Fatal("victim not indexed")
	}
	if err := e.Delete(victim); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if e.Contains(victim) {
		t.Error("Contains true after delete")
	}
	if e.Len() != len(ds.Photos)-1 {
		t.Errorf("Len = %d after delete, want %d", e.Len(), len(ds.Photos)-1)
	}
	// Deleting twice fails.
	if err := e.Delete(victim); err == nil {
		t.Error("double delete should fail")
	}
	// No query may return the deleted photo.
	qs, _ := ds.Queries(8, 23)
	for _, q := range qs {
		res, err := e.Query(q.Probe, len(ds.Photos))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.ID == victim {
				t.Fatal("deleted photo returned by query")
			}
		}
	}
	// Reinsertion works.
	if err := e.Insert(ds.Photos[0]); err != nil {
		t.Fatalf("reinsert: %v", err)
	}
	if !e.Contains(victim) {
		t.Error("reinserted photo missing")
	}
}

func TestDeleteValidation(t *testing.T) {
	e := NewEngine(Config{})
	if err := e.Delete(1); err == nil {
		t.Error("delete on unbuilt engine should fail")
	}
	ds := testDataset(t)
	e = builtEngine(t, ds)
	if err := e.Delete(999_999_999); err == nil || !strings.Contains(err.Error(), "not indexed") {
		t.Errorf("deleting unknown ID: %v", err)
	}
}

func TestCompactAfterDeletes(t *testing.T) {
	ds := testDataset(t)
	e := builtEngine(t, ds)
	for _, p := range ds.Photos[:10] {
		if err := e.Delete(p.ID); err != nil {
			t.Fatal(err)
		}
	}
	qs, _ := ds.Queries(4, 41)
	var before [][]SearchResult
	for _, q := range qs {
		r, err := e.Query(q.Probe, 40)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, r)
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if e.Len() != len(ds.Photos)-10 {
		t.Fatalf("Len = %d after compact", e.Len())
	}
	for i, q := range qs {
		after, err := e.Query(q.Probe, 40)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before[i]) {
			t.Fatalf("query %d differs after compact: %d vs %d", i, len(after), len(before[i]))
		}
		for j := range after {
			if after[j] != before[i][j] {
				t.Fatalf("query %d result %d differs after compact", i, j)
			}
		}
	}
	// Inserts still work post-compact.
	if err := e.Insert(ds.Photos[0]); err != nil {
		t.Fatalf("insert after compact: %v", err)
	}
}

func TestCompactUnbuilt(t *testing.T) {
	e := NewEngine(Config{})
	if err := e.Compact(); err == nil {
		t.Error("compact on unbuilt engine should fail")
	}
}
