package main

import (
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median sorts a copy of vs and returns its 0.5-quantile.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns the cut points Python's statistics.quantiles(vs, n=4)
// gives (the "exclusive" method), so `bench compare` judges spread exactly
// as the acceptance driver does. It needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sample is one timed operation. at is the offset from the phase start that
// places it in a segment: the due time in an open loop, the completion time
// in a closed loop. lat is measured from the due (open) or issue (closed)
// time.
type sample struct {
	at  time.Duration
	lat time.Duration
	ok  bool
}

// sloLimit is the latency limit behind slo_ok_ratio.
const sloLimit = 50 * time.Millisecond

// phaseStats summarizes one timed phase. Timings are medians over the
// phase's equal segments with the first (warm-up) segment dropped — a host
// hiccup pollutes one segment, not the reported value.
type phaseStats struct {
	P50ms, P95ms float64 // median over segments of the per-segment percentile
	PerSec       float64 // median over segments of ok operations per second
	P99ms, MaxMs float64 // over all post-warm-up samples
	SLOOK        float64 // median over segments of (ok within sloLimit ÷ attempted)
	Spread       float64 // (max-min)/median of the per-segment PerSec (P50 when rate is fixed)
	Segments     int     // segments that entered the medians
	SegP50ms     []float64
	SegPerSec    []float64
	Attempted    int // all samples, warm-up included
	Failed       int
}

// summarize cuts [0, dur) into nseg equal segments, drops the first, and
// reports medians over the rest. fixedRate says the phase ran on a schedule
// (open loop), where the per-segment rate is set by the schedule and the
// spread is taken over the per-segment medians instead.
func summarize(samples []sample, dur time.Duration, nseg int, fixedRate bool) phaseStats {
	var ps phaseStats
	ps.Attempted = len(samples)
	if nseg < 2 || dur <= 0 {
		return ps
	}
	segDur := dur / time.Duration(nseg)
	lats := make([][]float64, nseg)
	var tail []float64
	offered := make([]int, nseg)
	inLimit := make([]int, nseg)
	var lastDone time.Duration
	for _, s := range samples {
		if !s.ok {
			ps.Failed++
		}
		seg := int(s.at / segDur)
		if seg < 1 || seg >= nseg {
			continue
		}
		offered[seg]++
		if !s.ok {
			continue
		}
		if done := s.at + s.lat; done > lastDone {
			lastDone = done
		}
		ms := float64(s.lat) / float64(time.Millisecond)
		lats[seg] = append(lats[seg], ms)
		tail = append(tail, ms)
		if s.lat <= sloLimit {
			inLimit[seg]++
		}
	}
	var p50s, p95s, rates, slos []float64
	for seg := 1; seg < nseg; seg++ {
		if offered[seg] > 0 {
			slos = append(slos, float64(inLimit[seg])/float64(offered[seg]))
		}
		if len(lats[seg]) == 0 {
			continue
		}
		sort.Float64s(lats[seg])
		p50s = append(p50s, percentile(lats[seg], 0.50))
		p95s = append(p95s, percentile(lats[seg], 0.95))
		rates = append(rates, float64(len(lats[seg]))/segDur.Seconds())
	}
	ps.Segments = len(p50s)
	if ps.Segments == 0 {
		return ps
	}
	ps.P50ms, ps.P95ms, ps.PerSec = median(p50s), median(p95s), median(rates)
	ps.SegP50ms, ps.SegPerSec = p50s, rates
	sort.Float64s(tail)
	ps.P99ms, ps.MaxMs = percentile(tail, 0.99), tail[len(tail)-1]
	ps.SLOOK = median(slos)
	if fixedRate {
		// The schedule fixes how many operations fall in a segment; the
		// measured rate is what completed, over the time it took to complete.
		if took := lastDone - segDur; took > 0 {
			ps.PerSec = float64(len(tail)) / took.Seconds()
		}
		ps.Spread = spreadOf(p50s)
	} else {
		ps.Spread = spreadOf(rates)
	}
	return ps
}

// spreadOf is (max-min)/median, the within-run steadiness figure reported
// beside every segment median.
func spreadOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// medianOfDurationsMs is the p50 of a small set of one-shot timings (the
// snapshot writes), in milliseconds.
func medianOfDurationsMs(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(time.Millisecond)
	}
	return median(vs)
}

// dropFirst returns vs without its first element (the warm-up segment),
// unless that would leave nothing.
func dropFirst[T any](vs []T) []T {
	if len(vs) > 1 {
		return vs[1:]
	}
	return vs
}
