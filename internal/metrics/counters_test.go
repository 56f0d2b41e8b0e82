package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatal("zero value not zero")
	}
	c.Inc()
	c.Inc()
	if got := c.Load(); got != 2 {
		t.Fatalf("Load = %d, want 2", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("Load = %d, want 8000", got)
	}
}

func TestSummaryP95(t *testing.T) {
	l := NewLatency()
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	s := l.Summarize()
	if s.P95 < s.P90 || s.P95 > s.P99 {
		t.Fatalf("P95 %v outside [P90 %v, P99 %v]", s.P95, s.P90, s.P99)
	}
	if s.P95 != 96*time.Millisecond {
		t.Fatalf("P95 = %v, want 96ms", s.P95)
	}
}
