package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs callers goroutines that each issue op back to back until
// dur has elapsed: a caller sends its next request only after the previous
// one completed, so a slower system receives less load. seq numbers the
// operations across callers (probe sets are cycled by it). It returns every
// sample, placed by completion time, and when the phase started.
func closedLoop(callers int, dur time.Duration, op func(caller, seq int) bool) ([]sample, time.Time) {
	var next atomic.Int64
	perCaller := make([][]sample, callers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]sample, 0, 4096)
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				ok := op(c, int(next.Add(1)-1))
				t1 := time.Now()
				out = append(out, sample{at: t1.Sub(start), lat: t1.Sub(t0), ok: ok})
			}
			perCaller[c] = out
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perCaller {
		all = append(all, s...)
	}
	return all, start
}

// opKind is one operation type of the open-loop mix.
type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
	opKinds
)

func (k opKind) String() string { return [...]string{"query", "insert", "delete"}[k] }

// event is one scheduled operation: due is its offset from the phase start,
// arg indexes the workload's pre-generated inputs for that kind.
type event struct {
	due  time.Duration
	kind opKind
	arg  int
}

// openLoop sends events on their schedule regardless of how fast answers
// come back. senders connections pull the next event in due order, wait for
// its due time and issue it; latency counts from the due time, so the wait a
// stall imposes on later requests is charged to them (no coordinated
// omission). start is the schedule's origin. It returns one sample per
// event and how late each was sent.
func openLoop(start time.Time, senders int, events []event, op func(ev event) bool) (samples []sample, late []time.Duration) {
	samples = make([]sample, len(events))
	late = make([]time.Duration, len(events))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(events) {
					return
				}
				ev := events[i]
				due := start.Add(ev.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				ok := op(ev)
				samples[i] = sample{at: ev.due, lat: time.Since(due), ok: ok}
				if l := sent.Sub(due); l > 0 {
					late[i] = l
				}
			}
		}()
	}
	wg.Wait()
	return samples, late
}
