package chunk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func reassemble(chunks []Chunk) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c.Data...)
	}
	return out
}

func TestCDCReassembles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := randBytes(rng, 200_000)
	chunks, err := CDC(data, CDCConfig{})
	if err != nil {
		t.Fatalf("CDC: %v", err)
	}
	if !bytes.Equal(reassemble(chunks), data) {
		t.Fatal("CDC chunks do not reassemble to input")
	}
	cfg, _ := CDCConfig{}.withDefaults()
	for i, c := range chunks[:len(chunks)-1] {
		if len(c.Data) < cfg.Min || len(c.Data) > cfg.Max {
			t.Fatalf("chunk %d size %d outside [%d,%d]", i, len(c.Data), cfg.Min, cfg.Max)
		}
	}
	// Average size should be in the right ballpark (loose factor of 4).
	avg := len(data) / len(chunks)
	if avg < cfg.Avg/4 || avg > cfg.Avg*4 {
		t.Errorf("average chunk size %d far from target %d", avg, cfg.Avg)
	}
}

func TestCDCValidation(t *testing.T) {
	if _, err := CDC(nil, CDCConfig{Min: 10, Avg: 5, Max: 20}); err == nil {
		t.Error("avg < min should fail")
	}
	if _, err := CDC(nil, CDCConfig{Min: 10, Avg: 24, Max: 100}); err == nil {
		t.Error("non-power-of-two avg should fail")
	}
	if _, err := CDC(nil, CDCConfig{Min: 10, Avg: 16, Max: 12}); err == nil {
		t.Error("max < avg should fail")
	}
}

func TestCDCShiftInvariance(t *testing.T) {
	// The dedup-critical property: content shared between two streams at
	// different offsets still yields mostly identical chunks.
	rng := rand.New(rand.NewSource(2))
	shared := randBytes(rng, 150_000)
	prefixA := randBytes(rng, 3_333)
	prefixB := randBytes(rng, 7_777)
	a, err := CDC(append(append([]byte{}, prefixA...), shared...), CDCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CDC(append(append([]byte{}, prefixB...), shared...), CDCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fpA := make(map[uint64]bool)
	for _, c := range a {
		fpA[c.FP] = true
	}
	var sharedBytes, dupBytes int64
	for _, c := range b {
		sharedBytes += int64(len(c.Data))
		if fpA[c.FP] {
			dupBytes += int64(len(c.Data))
		}
	}
	if ratio := float64(dupBytes) / float64(sharedBytes); ratio < 0.7 {
		t.Errorf("only %.0f%% of shifted shared content deduplicated", ratio*100)
	}
}

func TestIndexDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randBytes(rng, 50_000)
	chunks, err := CDC(data, CDCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex()
	first := ix.Add(chunks)
	if first.NewBytes != first.TotalBytes || first.DupBytes != 0 {
		t.Errorf("first add should be all-new: %+v", first)
	}
	second := ix.Add(chunks)
	if second.NewBytes != 0 || second.DupBytes != second.TotalBytes {
		t.Errorf("second add should be all-duplicate: %+v", second)
	}
	if len(ix.seen) != first.NewChunks {
		t.Errorf("index holds %d fingerprints, want %d", len(ix.seen), first.NewChunks)
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	if Fingerprint([]byte("abc")) != Fingerprint([]byte("abc")) {
		t.Error("fingerprint not deterministic")
	}
	if Fingerprint([]byte("abc")) == Fingerprint([]byte("abd")) {
		t.Error("distinct content collided (overwhelmingly unlikely)")
	}
}

// Property: chunking always reassembles losslessly.
func TestCDCLosslessProperty(t *testing.T) {
	f := func(data []byte) bool {
		chunks, err := CDC(data, CDCConfig{Min: 8, Avg: 32, Max: 128})
		if err != nil {
			return false
		}
		return bytes.Equal(reassemble(chunks), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
