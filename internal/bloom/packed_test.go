package bloom

import (
	"math/rand"
	"slices"
	"testing"
)

// kernelCases are the boundary inputs of the scoring kernels: empty sets,
// identical and disjoint sets, the first and last positions of the filter,
// and widths that do not fill their last word. FuzzJaccardKernels starts
// from the same cases.
var kernelCases = []struct {
	name string
	m    uint32
	a, b []uint32
}{
	{"both empty", 64, nil, nil},
	{"one empty", 64, nil, []uint32{5}},
	{"zero width", 0, nil, nil},
	{"identical", 128, []uint32{1, 64, 127}, []uint32{1, 64, 127}},
	{"disjoint", 128, []uint32{0, 2, 4}, []uint32{1, 3, 65}},
	{"first and last position", 8192, []uint32{0, 8191}, []uint32{0, 4000, 8191}},
	{"partial last word", 100, []uint32{0, 63, 64, 99}, []uint32{63, 99}},
	{"single bit filter", 1, []uint32{0}, []uint32{0}},
	{"width 65", 65, []uint32{64}, []uint32{0, 64}},
	{"overlap", 8192, []uint32{3, 70, 900, 4096, 8000}, []uint32{3, 71, 900, 5000}},
}

// checkKernels asserts that every scoring kernel returns JaccardSparse's
// float64 for the sets a and b of an m-bit filter, and that packing
// round-trips through AppendBits.
func checkKernels(t *testing.T, m uint32, a, b []uint32) {
	t.Helper()
	want, err := JaccardSparse(&Sparse{M: m, Bits: a}, &Sparse{M: m, Bits: b})
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := AppendPacked(nil, m, a), AppendPacked(nil, m, b)
	if got := JaccardPacked(wa, wb); got != want {
		t.Errorf("m=%d a=%v b=%v: JaccardPacked = %v, JaccardSparse = %v", m, a, b, got, want)
	}
	if got := JaccardPackedSparse(wa, len(a), b); got != want {
		t.Errorf("m=%d a=%v b=%v: JaccardPackedSparse(a, b) = %v, JaccardSparse = %v", m, a, b, got, want)
	}
	if got := JaccardPackedSparse(wb, len(b), a); got != want {
		t.Errorf("m=%d a=%v b=%v: JaccardPackedSparse(b, a) = %v, JaccardSparse = %v", m, a, b, got, want)
	}
	for _, set := range [][]uint32{a, b} {
		if got := AppendBits(nil, AppendPacked(nil, m, set)); !slices.Equal(got, set) {
			t.Errorf("m=%d: AppendBits(AppendPacked(%v)) = %v", m, set, got)
		}
	}
}

func TestJaccardKernelsTable(t *testing.T) {
	for _, c := range kernelCases {
		t.Run(c.name, func(t *testing.T) { checkKernels(t, c.m, c.a, c.b) })
	}
	// A stored position beyond the probe's packed words is not in the probe.
	if got := JaccardPackedSparse(AppendPacked(nil, 64, []uint32{1}), 1, []uint32{1, 200}); got != 0.5 {
		t.Errorf("position beyond the packed words: got %v, want 0.5", got)
	}
}

// TestJaccardKernelsProperty runs the identities over seeded random sets of
// random widths and densities, from nearly empty to nearly full.
func TestJaccardKernelsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	randomSet := func(m uint32, density float64) []uint32 {
		var out []uint32
		for p := uint32(0); p < m; p++ {
			if rng.Float64() < density {
				out = append(out, p)
			}
		}
		return out
	}
	for i := 0; i < 500; i++ {
		m := uint32(rng.Intn(700))
		a := randomSet(m, rng.Float64())
		b := randomSet(m, rng.Float64())
		if i%5 == 0 { // near-duplicates, the scores the engine ranks on
			b = slices.Clone(a)
			if len(b) > 0 {
				b = slices.Delete(b, 0, rng.Intn(len(b))+1)
			}
		}
		checkKernels(t, m, a, b)
	}
}

// bitmapBytes encodes sorted positions as a little-endian bitmap, the fuzz
// input form FuzzJaccardKernels decodes.
func bitmapBytes(set []uint32) []byte {
	var out []byte
	for _, p := range set {
		for uint32(len(out)) <= p/8 {
			out = append(out, 0)
		}
		out[p/8] |= 1 << (p % 8)
	}
	return out
}

// FuzzJaccardKernels checks the scoring-kernel identities on arbitrary
// sets: each input byte slice is a bitmap of positions, cut at the fuzzed
// width m. The decoding is a plain bit loop, independent of the packing
// code under test.
func FuzzJaccardKernels(f *testing.F) {
	for _, c := range kernelCases {
		f.Add(uint16(c.m), bitmapBytes(c.a), bitmapBytes(c.b))
	}
	f.Fuzz(func(t *testing.T, mraw uint16, araw, braw []byte) {
		m := uint32(mraw) % 4097
		positions := func(raw []byte) []uint32 {
			var out []uint32
			for i, by := range raw {
				for j := 0; j < 8; j++ {
					if p := uint32(8*i + j); p < m && by>>j&1 == 1 {
						out = append(out, p)
					}
				}
			}
			return out
		}
		checkKernels(t, m, positions(araw), positions(braw))
	})
}
