package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The host probe measures the host while the benchmark measures the
// program. The benchmark runs on shared cores whose speed is not constant:
// on the development host a fixed arithmetic kernel takes ≈ 0.57 ms most of
// the time and ≈ 0.47 ms in bursts of seconds to tens of seconds (a sibling
// hardware thread going idle, or the clock stepping up), and CPU-bound
// figures move with it. A background goroutine times the same small kernel
// every probeEvery (about 1.5 % of one core); its median over the query
// phase is reported as host.kernel_us (and info.host_kernel_us), so a run
// that sat in the fast state can be told from a faster program. No metric is
// scaled by it: every value is reported as measured.
const (
	kernelIters = 300_000
	probeEvery  = 40 * time.Millisecond
)

var kernelSink float64

// hostKernel is the reference work: a fixed number of dependent
// floating-point operations over a working set that fits in L1.
func hostKernel() time.Duration {
	t0 := time.Now()
	s := 0.0
	for i := 0; i < kernelIters; i++ {
		s += math.Sqrt(float64(i&1023) + 1.5)
	}
	d := time.Since(t0)
	kernelSink = s
	return d
}

type hostProbe struct {
	stop, done chan struct{}

	mu   sync.Mutex
	at   []time.Time // when each kernel run ended, ascending
	took []time.Duration
}

// startHostProbe starts sampling; close stops it and waits for the sampler.
func startHostProbe() *hostProbe {
	h := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			d := hostKernel()
			h.mu.Lock()
			h.at = append(h.at, time.Now())
			h.took = append(h.took, d)
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *hostProbe) close() {
	close(h.stop)
	<-h.done
}

// kernelUS is the median kernel time over [from, to], in microseconds.
func (h *hostProbe) kernelUS(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	lo := sort.Search(len(h.at), func(i int) bool { return !h.at[i].Before(from) })
	hi := sort.Search(len(h.at), func(i int) bool { return h.at[i].After(to) })
	vs := make([]float64, 0, hi-lo)
	for _, d := range h.took[lo:hi] {
		vs = append(vs, float64(d)/float64(time.Microsecond))
	}
	return median(vs)
}
