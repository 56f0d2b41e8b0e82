package lsh

import (
	"math"
	"math/rand"
	"testing"
)

// randomSet draws n distinct elements from [0, space).
func randomSet(rng *rand.Rand, n, space int) []uint32 {
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		x := uint32(rng.Intn(space))
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// overlapSet returns a variant of base sharing roughly frac of its elements.
func overlapSet(rng *rand.Rand, base []uint32, frac float64, space int) []uint32 {
	keep := int(float64(len(base)) * frac)
	out := append([]uint32(nil), base[:keep]...)
	for len(out) < len(base) {
		out = append(out, uint32(space+rng.Intn(space)))
	}
	return out
}

func TestNewMinHashValidation(t *testing.T) {
	if _, err := NewMinHash(MinHashParams{Bands: -1}); err == nil {
		t.Error("negative bands should fail")
	}
	mh, err := NewMinHash(MinHashParams{})
	if err != nil {
		t.Fatalf("NewMinHash: %v", err)
	}
	p := mh.Params()
	if p.Bands != 7 || p.Rows != 1 {
		t.Errorf("defaults = %+v, want bands=7 rows=1", p)
	}
}

func TestMinHashEmptySetRejected(t *testing.T) {
	mh, _ := NewMinHash(MinHashParams{})
	if err := mh.Insert(1, nil); err == nil {
		t.Error("empty insert should fail")
	}
	if _, err := mh.Query(nil); err == nil {
		t.Error("empty query should fail")
	}
}

func TestMinHashIdenticalSetsAlwaysCollide(t *testing.T) {
	mh, _ := NewMinHash(MinHashParams{Seed: 5})
	rng := rand.New(rand.NewSource(1))
	sets := make([][]uint32, 50)
	for i := range sets {
		sets[i] = randomSet(rng, 40, 100000)
		if err := mh.Insert(ItemID(i), sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if refs := mh.Stats().TotalRefs; refs != 50*mh.Params().Bands {
		t.Fatalf("%d bucket refs, want one per band for each of 50 sets", refs)
	}
	for i, s := range sets {
		got, err := mh.Query(s)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, id := range got {
			if id == ItemID(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("identical set %d did not collide with itself", i)
		}
	}
}

func TestMinHashRecallTracksJaccard(t *testing.T) {
	// High-similarity pairs must collide far more often than low-similarity
	// pairs; rates should roughly match MinHashCollisionProb.
	params := MinHashParams{Bands: 7, Rows: 2, Seed: 9}
	rng := rand.New(rand.NewSource(2))
	trial := func(frac float64) float64 {
		hits := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			mh, _ := NewMinHash(params)
			base := randomSet(rng, 50, 1000000)
			_ = mh.Insert(1, base)
			variant := overlapSet(rng, base, frac, 1000000)
			got, _ := mh.Query(variant)
			if len(got) > 0 {
				hits++
			}
		}
		return float64(hits) / trials
	}
	// frac f of elements shared -> Jaccard f/(2-f).
	high := trial(0.8) // J = 0.67
	low := trial(0.2)  // J = 0.11
	if high < 0.8 {
		t.Errorf("high-similarity recall %v, want >= 0.8", high)
	}
	if low > 0.35 {
		t.Errorf("low-similarity recall %v, want <= 0.35", low)
	}
	wantHigh := MinHashCollisionProb(0.8/(2-0.8), params)
	if math.Abs(high-wantHigh) > 0.15 {
		t.Errorf("high recall %v deviates from theory %v", high, wantHigh)
	}
}

func TestMinHashQueryDeduplicates(t *testing.T) {
	mh, _ := NewMinHash(MinHashParams{Seed: 3})
	set := []uint32{1, 2, 3, 4, 5}
	_ = mh.Insert(42, set)
	got, _ := mh.Query(set)
	count := 0
	for _, id := range got {
		if id == 42 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("item returned %d times, want 1", count)
	}
}

func TestMinHashStats(t *testing.T) {
	mh, _ := NewMinHash(MinHashParams{Seed: 4})
	if st := mh.Stats(); st.Buckets != 0 {
		t.Errorf("fresh stats = %+v", st)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		_ = mh.Insert(ItemID(i), randomSet(rng, 30, 10000))
	}
	st := mh.Stats()
	if st.TotalRefs != 20*7 {
		t.Errorf("TotalRefs = %d, want 140", st.TotalRefs)
	}
}

func TestMinHashCollisionProbMonotone(t *testing.T) {
	params := MinHashParams{Bands: 7, Rows: 2}
	prev := -1.0
	for _, j := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1} {
		p := MinHashCollisionProb(j, params)
		if p < prev {
			t.Fatalf("collision prob not monotone at j=%v", j)
		}
		prev = p
	}
	if MinHashCollisionProb(0, params) != 0 {
		t.Error("P(collide | J=0) != 0")
	}
	if MinHashCollisionProb(1, params) != 1 {
		t.Error("P(collide | J=1) != 1")
	}
	if MinHashCollisionProb(-5, params) != 0 || MinHashCollisionProb(5, params) != 1 {
		t.Error("out-of-range j not clamped")
	}
}

func TestMinHashDeterministicAcrossInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := randomSet(rng, 30, 10000)
	a, _ := NewMinHash(MinHashParams{Seed: 77})
	b, _ := NewMinHash(MinHashParams{Seed: 77})
	_ = a.Insert(1, set)
	_ = b.Insert(1, set)
	ga, _ := a.Query(set)
	gb, _ := b.Query(set)
	if len(ga) != 1 || len(gb) != 1 {
		t.Fatalf("same-seed instances disagree: %v vs %v", ga, gb)
	}
	c, _ := NewMinHash(MinHashParams{Seed: 78})
	_ = c.Insert(1, set)
	// Different seed still finds the identical set (identical sets always
	// collide under any min-hash family).
	gc, _ := c.Query(set)
	if len(gc) != 1 {
		t.Error("identical set lost under different seed")
	}
}
