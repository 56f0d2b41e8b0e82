package cuckoo

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzCuckooInsertDelete replays an arbitrary operation stream — 9-byte
// records of (op, key) — against the fixed Flat table, with a plain map as
// the oracle. Invariants: every key the model holds is findable with the
// model's value, every key it does not hold is absent, and Len always
// matches. ErrTableFull is legal (the item lands in the stash and must
// still be findable); any other error is a bug.
func FuzzCuckooInsertDelete(f *testing.F) {
	rec := func(op byte, key uint64) []byte {
		b := make([]byte, 9)
		b[0] = op
		binary.LittleEndian.PutUint64(b[1:], key)
		return b
	}
	f.Add(append(rec(0, 1), rec(0, 2)...))
	f.Add(append(append(rec(0, 1), rec(1, 1)...), rec(0, 1)...))
	f.Add(rec(2, 7))
	var burst []byte
	for k := uint64(1); k <= 64; k++ {
		burst = append(burst, rec(0, k)...)
	}
	f.Add(burst)
	f.Fuzz(func(t *testing.T, data []byte) {
		flat, err := NewFlat(64, 2, 0, 99)
		if err != nil {
			t.Fatal(err)
		}
		model := map[uint64]uint64{}
		for off := 0; off+9 <= len(data) && off < 9*4096; off += 9 {
			op := data[off] % 3
			// Confine keys to a small range so delete/reinsert collisions
			// actually happen; key 0 is reserved by the table.
			key := binary.LittleEndian.Uint64(data[off+1:])%512 + 1
			switch op {
			case 0: // insert / update
				val := key * 3
				if err := flat.Insert(key, val); err != nil && !errors.Is(err, ErrTableFull) {
					t.Fatalf("flat insert %d: %v", key, err)
				}
				model[key] = val
			case 1: // delete
				want := false
				if _, ok := model[key]; ok {
					want = true
					delete(model, key)
				}
				if got := flat.Delete(key); got != want {
					t.Fatalf("flat delete %d = %v, want %v", key, got, want)
				}
			case 2: // lookup probe for a key that may be absent
				_, inModel := model[key]
				if _, ok := flat.Lookup(key); ok != inModel {
					t.Fatalf("flat lookup %d = %v, want %v", key, ok, inModel)
				}
			}
		}
		if flat.Len() != len(model) {
			t.Fatalf("len drift: flat=%d model=%d", flat.Len(), len(model))
		}
		for k, v := range model {
			if got, ok := flat.Lookup(k); !ok || got != v {
				t.Fatalf("flat lost key %d (ok=%v got=%d want=%d)", k, ok, got, v)
			}
		}
	})
}
