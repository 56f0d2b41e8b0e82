package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestLatencySummary(t *testing.T) {
	l := NewLatency()
	if s := l.Summarize(); s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	s := l.Summarize()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", s.Mean)
	}
	if s.Median < 50*time.Millisecond || s.Median > 51*time.Millisecond {
		t.Errorf("Median = %v", s.Median)
	}
	if s.P90 < 90*time.Millisecond || s.P99 < 99*time.Millisecond {
		t.Errorf("P90/P99 = %v/%v", s.P90, s.P99)
	}
	if s.P99 > s.Max {
		t.Error("P99 exceeds Max")
	}
}

func TestLatencyConcurrent(t *testing.T) {
	l := NewLatency()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Record(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if n := l.Summarize().Count; n != 1000 {
		t.Errorf("Count = %d, want 1000", n)
	}
}

func TestScoreRetrieval(t *testing.T) {
	relevant := map[uint64]bool{1: true, 2: true, 3: true}
	r := ScoreRetrieval([]uint64{1, 2, 9, 9}, relevant)
	if r.TruePositives != 2 || r.FalsePositives != 1 || r.FalseNegatives != 1 {
		t.Fatalf("retrieval = %+v", r)
	}
	if r.Recall() != 2.0/3.0 {
		t.Errorf("Recall = %v", r.Recall())
	}
	if r.Precision() != 2.0/3.0 {
		t.Errorf("Precision = %v", r.Precision())
	}
}

func TestRetrievalDegenerate(t *testing.T) {
	empty := ScoreRetrieval(nil, map[uint64]bool{})
	if empty.Recall() != 1 || empty.Precision() != 1 {
		t.Errorf("empty/empty should be perfect: %+v", empty)
	}
	none := ScoreRetrieval(nil, map[uint64]bool{5: true})
	if none.Recall() != 0 || none.Precision() != 1 {
		t.Errorf("no results: %+v recall=%v precision=%v", none, none.Recall(), none.Precision())
	}
}

func TestAccuracyNormalization(t *testing.T) {
	var sift, fast Accuracy
	for i := 0; i < 10; i++ {
		sift.Add(1.0)
		fast.Add(0.99995)
	}
	n, err := fast.NormalizedTo(&sift)
	if err != nil {
		t.Fatalf("NormalizedTo: %v", err)
	}
	if n <= 0.9999 || n > 1 {
		t.Errorf("normalized = %v", n)
	}
	var zero Accuracy
	if _, err := fast.NormalizedTo(&zero); err == nil {
		t.Error("zero baseline should fail")
	}
	if zero.Mean() != 0 {
		t.Errorf("empty accuracy mean = %v", zero.Mean())
	}
}
