package bloom

import (
	"testing"
	"testing/quick"
)

func TestSparseRoundTrip(t *testing.T) {
	f, _ := New(512, 6)
	for i := uint64(0); i < 30; i++ {
		f.Add(i * 101)
	}
	s := ToSparse(f)
	if s.M != 512 || s.K != 6 {
		t.Fatalf("sparse geometry (%d,%d), want (512,6)", s.M, s.K)
	}
	back, err := s.ToDense()
	if err != nil {
		t.Fatalf("ToDense: %v", err)
	}
	d, err := HammingDistance(f, back)
	if err != nil || d != 0 {
		t.Errorf("round trip distance = %d, %v", d, err)
	}
}

func TestSparseContains(t *testing.T) {
	s := &Sparse{M: 100, K: 2, Bits: []uint32{3, 17, 64}}
	for _, b := range []uint32{3, 17, 64} {
		if !s.Contains(b) {
			t.Errorf("Contains(%d) = false", b)
		}
	}
	for _, b := range []uint32{0, 4, 99} {
		if s.Contains(b) {
			t.Errorf("Contains(%d) = true", b)
		}
	}
}

func TestSparseToDenseRejectsOutOfRange(t *testing.T) {
	s := &Sparse{M: 64, K: 2, Bits: []uint32{70}}
	if _, err := s.ToDense(); err == nil {
		t.Error("out-of-range bit should fail")
	}
}

func TestSparseSizeBytesMuchSmallerThanDense(t *testing.T) {
	// The paper's core space claim: a sparse summary of a lightly filled
	// filter is far smaller than the dense array.
	f, _ := New(1<<16, 8) // 8 KB dense
	for i := uint64(0); i < 16; i++ {
		f.Add(i)
	}
	s := ToSparse(f)
	if s.SizeBytes() >= f.DenseSizeBytes()/10 {
		t.Errorf("sparse %dB not <10%% of dense %dB", s.SizeBytes(), f.DenseSizeBytes())
	}
}

func TestSparseJaccardMatchesDense(t *testing.T) {
	a, _ := New(2048, 4)
	b, _ := New(2048, 4)
	for i := uint64(0); i < 25; i++ {
		a.Add(i)
		b.Add(i + 12)
	}
	want, _ := Jaccard(a, b)
	got, err := JaccardSparse(ToSparse(a), ToSparse(b))
	if err != nil {
		t.Fatalf("JaccardSparse: %v", err)
	}
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("sparse jaccard %v != dense %v", got, want)
	}
}

func TestSparseGeometryMismatch(t *testing.T) {
	a := &Sparse{M: 64, K: 2}
	b := &Sparse{M: 128, K: 2}
	if _, err := JaccardSparse(a, b); err == nil {
		t.Error("sparse jaccard geometry mismatch should fail")
	}
}

func TestJaccardSparseEmpty(t *testing.T) {
	a := &Sparse{M: 64, K: 2}
	b := &Sparse{M: 64, K: 2}
	j, err := JaccardSparse(a, b)
	if err != nil || j != 1 {
		t.Errorf("JaccardSparse(empty, empty) = %v, %v; want 1", j, err)
	}
}

// Property: sparse round trip is lossless for arbitrary item sets.
func TestSparseRoundTripProperty(t *testing.T) {
	f := func(items []uint64) bool {
		bf, _ := New(2048, 5)
		for _, it := range items {
			bf.Add(it)
		}
		s := ToSparse(bf)
		back, err := s.ToDense()
		if err != nil {
			return false
		}
		d, err := HammingDistance(bf, back)
		return err == nil && d == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
