package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := New(128, 0); err == nil {
		t.Error("k=0 should fail")
	}
	f, err := New(128, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if f.m != 128 || f.k != 4 {
		t.Errorf("geometry = (%d,%d), want (128,4)", f.m, f.k)
	}
	if f.DenseSizeBytes() != 16 {
		t.Errorf("DenseSizeBytes = %d, want 16", f.DenseSizeBytes())
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f, _ := New(1024, 8)
	items := []uint64{0, 1, 42, 1 << 40, ^uint64(0)}
	for _, it := range items {
		f.Add(it)
	}
	for _, it := range items {
		if !f.Contains(it) {
			t.Errorf("false negative for %d", it)
		}
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	const n = 1000
	// m = -n ln p / (ln 2)^2 and k = (m/n) ln 2 at p = 0.01.
	f, err := New(9586, 7)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	inserted := make(map[uint64]bool, n)
	for len(inserted) < n {
		x := rng.Uint64()
		inserted[x] = true
		f.Add(x)
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		x := rng.Uint64()
		if inserted[x] {
			continue
		}
		if f.Contains(x) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Errorf("false-positive rate %v, want <= 0.03 for target 0.01", rate)
	}
}

func TestHammingDistanceSelfZero(t *testing.T) {
	f, _ := New(256, 4)
	f.Add(7)
	f.Add(9)
	d, err := HammingDistance(f, f)
	if err != nil || d != 0 {
		t.Errorf("self distance = %d, %v", d, err)
	}
}

func TestHammingSimilarSetsCloser(t *testing.T) {
	// Filters sharing most items should be closer than disjoint ones.
	mk := func(items []uint64) *Filter {
		f, _ := New(2048, 6)
		for _, it := range items {
			f.Add(it)
		}
		return f
	}
	base := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	similar := append(append([]uint64{}, base[:9]...), 99)
	disjoint := []uint64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	fb, fs, fd := mk(base), mk(similar), mk(disjoint)
	ds, _ := HammingDistance(fb, fs)
	dd, _ := HammingDistance(fb, fd)
	if ds >= dd {
		t.Errorf("similar distance %d >= disjoint distance %d", ds, dd)
	}
	js, _ := Jaccard(fb, fs)
	jd, _ := Jaccard(fb, fd)
	if js <= jd {
		t.Errorf("similar jaccard %v <= disjoint %v", js, jd)
	}
}

func TestGeometryMismatchErrors(t *testing.T) {
	a, _ := New(128, 4)
	b, _ := New(256, 4)
	if _, err := HammingDistance(a, b); err == nil {
		t.Error("HammingDistance geometry mismatch should fail")
	}
	if _, err := Jaccard(a, b); err == nil {
		t.Error("Jaccard geometry mismatch should fail")
	}
}

func TestJaccardEmptyFilters(t *testing.T) {
	a, _ := New(128, 4)
	b, _ := New(128, 4)
	j, err := Jaccard(a, b)
	if err != nil || j != 1 {
		t.Errorf("Jaccard(empty, empty) = %v, %v; want 1", j, err)
	}
}

func TestBitVectorAndSetBitsAgree(t *testing.T) {
	f, _ := New(300, 5)
	for i := uint64(0); i < 20; i++ {
		f.Add(i * 37)
	}
	v := f.BitVector()
	if len(v) != 300 {
		t.Fatalf("BitVector length %d, want 300", len(v))
	}
	set := f.SetBits()
	if len(set) != f.PopCount() {
		t.Fatalf("SetBits count %d, PopCount %d", len(set), f.PopCount())
	}
	seen := make(map[uint32]bool)
	for _, b := range set {
		seen[b] = true
		if v[b] != 1 {
			t.Fatalf("bit %d in SetBits but 0 in BitVector", b)
		}
	}
	for i, x := range v {
		if x == 1 && !seen[uint32(i)] {
			t.Fatalf("bit %d set in vector but missing in SetBits", i)
		}
	}
	// SetBits sorted.
	for i := 1; i < len(set); i++ {
		if set[i] <= set[i-1] {
			t.Fatal("SetBits not strictly increasing")
		}
	}
}

// Property: an added item is always reported present (no false negatives).
func TestNoFalseNegativeProperty(t *testing.T) {
	f := func(items []uint64) bool {
		bf, err := New(4096, 6)
		if err != nil {
			return false
		}
		for _, it := range items {
			bf.Add(it)
		}
		for _, it := range items {
			if !bf.Contains(it) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Hamming distance is symmetric and satisfies identity.
func TestHammingSymmetryProperty(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		a, _ := New(1024, 4)
		b, _ := New(1024, 4)
		for _, x := range xs {
			a.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
		}
		ab, err1 := HammingDistance(a, b)
		ba, err2 := HammingDistance(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return ab == ba && ab >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
