// Package metrics provides the latency, throughput and accuracy statistics
// used by the evaluation harness: streaming latency collection with
// percentiles, and set-based retrieval scoring (recall/precision against
// generator ground truth, normalized accuracy against a reference scheme as
// in Table III).
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Latency collects duration samples; it is safe for concurrent use.
type Latency struct {
	mu      sync.Mutex
	samples []time.Duration
}

// NewLatency returns an empty collector.
func NewLatency() *Latency { return &Latency{} }

// Record appends one sample.
func (l *Latency) Record(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples = append(l.samples, d)
}

// Summary holds order statistics of a latency distribution.
type Summary struct {
	Count         int
	Mean, Median  time.Duration
	P90, P95      time.Duration
	P99, Min, Max time.Duration
	Total         time.Duration
}

// Summarize computes the distribution summary. An empty collector returns a
// zero Summary.
func (l *Latency) Summarize() Summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s Summary
	s.Count = len(l.samples)
	if s.Count == 0 {
		return s
	}
	sorted := make([]time.Duration, s.Count)
	copy(sorted, l.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, d := range sorted {
		s.Total += d
	}
	s.Mean = s.Total / time.Duration(s.Count)
	s.Median = sorted[s.Count/2]
	s.P90 = sorted[min(s.Count*90/100, s.Count-1)]
	s.P95 = sorted[min(s.Count*95/100, s.Count-1)]
	s.P99 = sorted[min(s.Count*99/100, s.Count-1)]
	s.Min = sorted[0]
	s.Max = sorted[s.Count-1]
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Retrieval scores one query's result set against ground truth.
type Retrieval struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// ScoreRetrieval compares returned IDs against the relevant set.
func ScoreRetrieval(returned []uint64, relevant map[uint64]bool) Retrieval {
	var r Retrieval
	seen := make(map[uint64]bool, len(returned))
	for _, id := range returned {
		if seen[id] {
			continue
		}
		seen[id] = true
		if relevant[id] {
			r.TruePositives++
		} else {
			r.FalsePositives++
		}
	}
	for id := range relevant {
		if !seen[id] {
			r.FalseNegatives++
		}
	}
	return r
}

// Recall returns TP / (TP + FN), or 1 when there are no relevant items.
func (r Retrieval) Recall() float64 {
	denom := r.TruePositives + r.FalseNegatives
	if denom == 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(denom)
}

// Precision returns TP / (TP + FP), or 1 when nothing was returned.
func (r Retrieval) Precision() float64 {
	denom := r.TruePositives + r.FalsePositives
	if denom == 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(denom)
}

// Accuracy is an accumulating mean of per-query recalls; Table III reports
// this value normalized to SIFT's.
type Accuracy struct {
	mu    sync.Mutex
	sum   float64
	count int
}

// Add accumulates one query's recall.
func (a *Accuracy) Add(recall float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sum += recall
	a.count++
}

// Mean returns the average recall, or 0 with no queries.
func (a *Accuracy) Mean() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.count == 0 {
		return 0
	}
	return a.sum / float64(a.count)
}

// NormalizedTo returns this accuracy divided by the baseline's. It returns
// an error if the baseline accuracy is zero.
func (a *Accuracy) NormalizedTo(baseline *Accuracy) (float64, error) {
	b := baseline.Mean()
	if b == 0 {
		return 0, fmt.Errorf("metrics: baseline accuracy is zero")
	}
	return a.Mean() / b, nil
}
