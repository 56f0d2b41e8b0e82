package dedup

import (
	"math/rand"
	"testing"

	"github.com/fastrepro/fast/internal/simimg"
)

func TestDetectorFlagsNearDuplicates(t *testing.T) {
	scene := simimg.NewScene(30)
	rng := rand.New(rand.NewSource(1))
	d := NewDetector(Config{})

	first := simimg.RenderPhoto(1, scene, simimg.PhotoParams{Severity: 0.05}, rng)
	dec, err := d.Check(first.Img)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if dec.Duplicate {
		t.Fatal("first image flagged as duplicate")
	}
	if len(d.summaries) != 1 {
		t.Fatalf("Seen = %d, want 1", len(d.summaries))
	}

	retake := simimg.RenderPhoto(2, scene, simimg.PhotoParams{Severity: 0.05}, rng)
	dec, err = d.Check(retake.Img)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !dec.Duplicate {
		t.Errorf("near-duplicate retake not flagged (similarity %v)", dec.Similarity)
	}
	if dec.MatchIndex != 0 {
		t.Errorf("MatchIndex = %d, want 0", dec.MatchIndex)
	}
	// A retained duplicate must not grow the summary set.
	if len(d.summaries) != 1 {
		t.Errorf("Seen = %d after duplicate, want 1", len(d.summaries))
	}
}

func TestDetectorPassesDistinctScenes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDetector(Config{})
	var dups int
	for i := simimg.SceneID(40); i < 48; i++ {
		p := simimg.RenderPhoto(uint64(i), simimg.NewScene(i), simimg.PhotoParams{Severity: 0.1}, rng)
		dec, err := d.Check(p.Img)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if dec.Duplicate {
			dups++
		}
	}
	if dups > 1 {
		t.Errorf("%d/8 distinct scenes flagged duplicate", dups)
	}
}

func TestSummarizeErrorOnTinyImage(t *testing.T) {
	d := NewDetector(Config{})
	if _, err := d.Summarize(simimg.New(4, 4)); err == nil {
		t.Error("tiny image should fail summarization")
	}
}

func TestThresholdControlsSensitivity(t *testing.T) {
	// With threshold ~1.0 nothing short of identical matches.
	scene := simimg.NewScene(60)
	rng := rand.New(rand.NewSource(4))
	strict := NewDetector(Config{SimilarityThreshold: 0.999})
	a := simimg.RenderPhoto(1, scene, simimg.PhotoParams{Severity: 0.2}, rng)
	b := simimg.RenderPhoto(2, scene, simimg.PhotoParams{Severity: 0.2}, rng)
	if _, err := strict.Check(a.Img); err != nil {
		t.Fatal(err)
	}
	dec, err := strict.Check(b.Img)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Duplicate {
		t.Error("strict threshold still flagged a perturbed retake")
	}
}

func TestMaxSummariesEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDetector(Config{MaxSummaries: 3})
	for i := simimg.SceneID(70); i < 76; i++ {
		p := simimg.RenderPhoto(uint64(i), simimg.NewScene(i), simimg.PhotoParams{Severity: 0.1}, rng)
		if _, err := d.Check(p.Img); err != nil {
			t.Fatal(err)
		}
		if len(d.summaries) > 3 {
			t.Fatalf("Seen = %d exceeds MaxSummaries 3", len(d.summaries))
		}
	}
	// The oldest scene's retake is no longer recognized (its summary was
	// evicted), while the newest scene's retake still is.
	newest := simimg.RenderPhoto(99, simimg.NewScene(75), simimg.PhotoParams{Severity: 0.05}, rng)
	dec, err := d.Check(newest.Img)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Duplicate {
		t.Log("newest-scene retake not flagged (probabilistic; acceptable)")
	}
}
