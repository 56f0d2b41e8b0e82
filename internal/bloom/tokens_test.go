package bloom

import (
	"testing"
)

func TestSubVectorTokensDeterministic(t *testing.T) {
	v := []float64{0.6, -0.3, 0.1, 0.9, 0.0, 0.0, 0.7, 0.2}
	a := AppendSubVectorTokens(nil, v, 4, 0.5)
	b := AppendSubVectorTokens(nil, v, 4, 0.5)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tokens not deterministic")
		}
	}
}

func TestSubVectorTokensSkipsZeroGroups(t *testing.T) {
	// First group all below granularity/2 -> suppressed; second informative.
	v := []float64{0.1, 0.1, 0.1, 0.1, 0.9, 0.9, 0.9, 0.9}
	toks := AppendSubVectorTokens(nil, v, 4, 0.5)
	if len(toks) != 1 {
		t.Fatalf("got %d tokens, want 1 (zero group suppressed)", len(toks))
	}
	all := []float64{0.01, 0.01, 0.01, 0.01}
	if toks := AppendSubVectorTokens(nil, all, 4, 0.5); len(toks) != 0 {
		t.Errorf("all-zero vector emitted %d tokens", len(toks))
	}
}

func TestSubVectorTokensPartialRobustness(t *testing.T) {
	// Perturbing one component must invalidate at most one token.
	v := make([]float64, 32)
	for i := range v {
		v[i] = 0.6
	}
	w := append([]float64(nil), v...)
	w[5] = 1.4 // crosses a quantization boundary
	a := AppendSubVectorTokens(nil, v, 8, 0.5)
	b := AppendSubVectorTokens(nil, w, 8, 0.5)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("token counts %d, %d; want 4", len(a), len(b))
	}
	differ := 0
	for i := range a {
		if a[i] != b[i] {
			differ++
		}
	}
	if differ != 1 {
		t.Errorf("%d tokens differ, want exactly 1", differ)
	}
}

func TestSubVectorTokensGroupTagging(t *testing.T) {
	// The same values in different groups must yield different tokens.
	v := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	toks := AppendSubVectorTokens(nil, v, 4, 0.5)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens, want 2", len(toks))
	}
	if toks[0] == toks[1] {
		t.Error("identical groups in different positions produced identical tokens")
	}
}

func TestSubVectorTokensDefaults(t *testing.T) {
	v := make([]float64, 40)
	for i := range v {
		v[i] = 1
	}
	// sub<=0 and granularity<=0 must fall back to defaults, not panic.
	toks := AppendSubVectorTokens(nil, v, 0, 0)
	if len(toks) != 3 { // ceil(40/16)
		t.Errorf("default sub produced %d tokens, want 3", len(toks))
	}
}

func TestSummarizeAndConfigDefaults(t *testing.T) {
	cfg := SummaryConfig{}.WithDefaults()
	if cfg.Bits != 8192 || cfg.K != 4 || cfg.SubVector != 16 || cfg.Granularity != 0.5 {
		t.Errorf("defaults = %+v", cfg)
	}
	descs := [][]float64{
		{0.9, 0.8, 0.7, 0.6},
		{0.1, 0.2, 0.9, 0.9},
	}
	f, err := Summarize(descs, SummaryConfig{Bits: 256, K: 3, SubVector: 2, Granularity: 0.5})
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if f.PopCount() == 0 {
		t.Error("summary has no set bits")
	}
	// Identical descriptor sets summarize identically.
	g, _ := Summarize(descs, SummaryConfig{Bits: 256, K: 3, SubVector: 2, Granularity: 0.5})
	if d, _ := HammingDistance(f, g); d != 0 {
		t.Errorf("identical inputs differ by %d bits", d)
	}
}

func TestSummarizeNamedSliceType(t *testing.T) {
	// Summarize is generic over ~[]float64 so callers holding named vector
	// types (e.g. linalg.Vector) can pass descriptors without copying. The
	// summary must not depend on the element type's name.
	type vec []float64
	plain := [][]float64{
		{0.9, 0.8, 0.7, 0.6},
		{0.1, 0.2, 0.9, 0.9},
		{0.55, -0.3, 1.2, 0.0},
	}
	named := make([]vec, len(plain))
	for i, d := range plain {
		named[i] = vec(append([]float64(nil), d...))
	}
	cfg := SummaryConfig{Bits: 256, K: 3, SubVector: 2, Granularity: 0.5}
	a, err := Summarize(plain, cfg)
	if err != nil {
		t.Fatalf("Summarize([][]float64): %v", err)
	}
	b, err := Summarize(named, cfg)
	if err != nil {
		t.Fatalf("Summarize([]vec): %v", err)
	}
	if d, _ := HammingDistance(a, b); d != 0 {
		t.Errorf("named slice type changed summary by %d bits", d)
	}
}

func TestAppendSubVectorTokensReusesDst(t *testing.T) {
	v := []float64{0.6, -0.3, 0.1, 0.9, 0.7, 0.2, 0.8, 0.4}
	want := AppendSubVectorTokens(nil, v, 4, 0.5)
	dst := make([]uint64, 0, 8)
	got := AppendSubVectorTokens(dst, v, 4, 0.5)
	if len(got) != len(want) {
		t.Fatalf("append variant emitted %d tokens, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d differs: %d vs %d", i, got[i], want[i])
		}
	}
	if &got[0] != &dst[:1][0] {
		t.Error("AppendSubVectorTokens did not reuse the provided backing array")
	}
	// Sub-vector sizes beyond the stack scratch must still work (heap path).
	big := make([]float64, 256)
	for i := range big {
		big[i] = 0.9
	}
	if toks := AppendSubVectorTokens(nil, big, 128, 0.5); len(toks) != 2 {
		t.Errorf("large sub-vector emitted %d tokens, want 2", len(toks))
	}
}

func TestAddTokens(t *testing.T) {
	f, _ := New(512, 4)
	toks := []uint64{1, 2, 3}
	f.AddTokens(toks)
	for _, tok := range toks {
		if !f.Contains(tok) {
			t.Errorf("token %d missing after AddTokens", tok)
		}
	}
}
