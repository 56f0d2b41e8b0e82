// Package dedup implements FAST's smartphone-side near-duplicate
// identification: before uploading, the client extracts a compact summary of
// each image and skips the upload when a sufficiently similar image has
// already been sent (or is known to exist on the server). This is the
// mechanism behind Figure 8's bandwidth and energy savings — "sharing (and
// uploading) only the most representative [image] rather than all".
//
// The detector reuses the server-side pipeline at reduced fidelity: Bloom
// summaries of quantized PCA-SIFT features compared by Jaccard similarity.
package dedup

import (
	"fmt"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/feature"
	"github.com/fastrepro/fast/internal/simimg"
)

// Config tunes the detector.
type Config struct {
	// SimilarityThreshold is the minimum Jaccard similarity between Bloom
	// summaries for two images to be considered near-duplicates.
	// 0 means 0.25 (calibrated on the synthetic corpus at mild severity:
	// same-scene retakes average ~0.44 Jaccard, distinct scenes ~0.10 under
	// the default summary geometry).
	SimilarityThreshold float64
	// Summary is the Bloom summary geometry; zero fields take the
	// calibrated defaults of bloom.SummaryConfig.
	Summary bloom.SummaryConfig
	// Detect configures the keypoint detector; zero value uses defaults.
	Detect feature.DetectConfig
	// MaxSummaries bounds the retained summary set (phones have limited
	// memory); when the bound is hit the oldest summary is evicted
	// (FIFO — recent shots are the likeliest duplicates of the next shot).
	// 0 means 512; negative means unbounded.
	MaxSummaries int
}

func (c Config) withDefaults() Config {
	if c.SimilarityThreshold == 0 {
		c.SimilarityThreshold = 0.25
	}
	if c.MaxSummaries == 0 {
		c.MaxSummaries = 512
	}
	c.Summary = c.Summary.WithDefaults()
	return c
}

// Detector decides whether an image is a near duplicate of one seen before.
type Detector struct {
	cfg       Config
	summaries []*bloom.Sparse
}

// NewDetector returns a detector with the given configuration.
func NewDetector(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults()}
}

// Summarize builds the Bloom summary of an image from its quantized SIFT
// descriptors.
func (d *Detector) Summarize(im *simimg.Image) (*bloom.Sparse, error) {
	_, descs, err := feature.SIFTDescribeAll(im, d.cfg.Detect)
	if err != nil {
		return nil, fmt.Errorf("dedup: summarize: %w", err)
	}
	f, err := bloom.Summarize(descs, d.cfg.Summary)
	if err != nil {
		return nil, err
	}
	return bloom.ToSparse(f), nil
}

// Decision reports the outcome for one image.
type Decision struct {
	Duplicate  bool
	Similarity float64 // best Jaccard similarity against retained summaries
	MatchIndex int     // index of the matched summary, -1 if none
}

// Check summarizes im and compares it against every retained summary. If it
// is not a near duplicate, the summary is retained for future checks.
func (d *Detector) Check(im *simimg.Image) (Decision, error) {
	s, err := d.Summarize(im)
	if err != nil {
		return Decision{MatchIndex: -1}, err
	}
	best, bestIdx := 0.0, -1
	for i, prev := range d.summaries {
		j, err := bloom.JaccardSparse(s, prev)
		if err != nil {
			continue
		}
		if j > best {
			best, bestIdx = j, i
		}
	}
	if bestIdx >= 0 && best >= d.cfg.SimilarityThreshold {
		return Decision{Duplicate: true, Similarity: best, MatchIndex: bestIdx}, nil
	}
	d.summaries = append(d.summaries, s)
	if d.cfg.MaxSummaries > 0 && len(d.summaries) > d.cfg.MaxSummaries {
		// Evict the oldest summary; indexes reported in future Decisions
		// refer to the compacted slice.
		d.summaries = d.summaries[1:]
	}
	return Decision{Duplicate: false, Similarity: best, MatchIndex: -1}, nil
}
