package cluster

import (
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/store"
)

func small() *Cluster {
	c, err := New(Config{Nodes: 4, CoresPerNode: 2})
	if err != nil {
		panic(err)
	}
	return c
}

func TestNewDefaults(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(c.nodes) != 256 || c.cfg.CoresPerNode != 32 {
		t.Errorf("defaults = %d nodes x %d cores, want 256x32", len(c.nodes), c.cfg.CoresPerNode)
	}
	if _, err := New(Config{Nodes: -1}); err == nil {
		t.Error("negative nodes should fail")
	}
}

func TestSubmitSerializesOnBusyCores(t *testing.T) {
	c := small() // 2 cores per node
	d := 10 * time.Millisecond
	t1, _ := c.Submit(0, 0, d)
	t2, _ := c.Submit(0, 0, d)
	t3, _ := c.Submit(0, 0, d)
	if t1 != d || t2 != d {
		t.Errorf("first two tasks should run in parallel: %v, %v", t1, t2)
	}
	if t3 != 2*d {
		t.Errorf("third task should queue: %v, want %v", t3, 2*d)
	}
}

func TestSubmitRespectsArrival(t *testing.T) {
	c := small()
	done, _ := c.Submit(1, 50*time.Millisecond, 10*time.Millisecond)
	if done != 60*time.Millisecond {
		t.Errorf("completion = %v, want 60ms", done)
	}
}

func TestSubmitValidation(t *testing.T) {
	c := small()
	if _, err := c.Submit(99, 0, time.Millisecond); err == nil {
		t.Error("bad node should fail")
	}
	if _, err := c.Submit(0, 0, -time.Millisecond); err == nil {
		t.Error("negative service should fail")
	}
}

func TestRouteStableAndInRange(t *testing.T) {
	c := small()
	for k := uint64(0); k < 1000; k++ {
		n := c.Route(k)
		if n < 0 || n >= len(c.nodes) {
			t.Fatalf("Route(%d) = %d out of range", k, n)
		}
		if n != c.Route(k) {
			t.Fatal("Route not deterministic")
		}
	}
	// Roughly balanced: every node receives some keys.
	counts := make([]int, len(c.nodes))
	for k := uint64(0); k < 4000; k++ {
		counts[c.Route(k)]++
	}
	for i, n := range counts {
		if n < 500 {
			t.Errorf("node %d received only %d/4000 keys", i, n)
		}
	}
}

func TestRunWorkloadQueueingGrowsWithLoad(t *testing.T) {
	// More simultaneous requests per core -> higher mean latency. This is
	// the Figure 4 mechanism for the baselines.
	mk := func(n int) WorkloadStats {
		c := small() // 4 nodes x 2 cores = 8 servers
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i)
		}
		return c.RunWorkload(keys, func(uint64) time.Duration { return time.Millisecond })
	}
	light := mk(8)
	heavy := mk(800)
	if heavy.Mean <= light.Mean {
		t.Errorf("queueing invisible: heavy mean %v <= light mean %v", heavy.Mean, light.Mean)
	}
	if heavy.Count != 800 {
		t.Errorf("Count = %d, want 800", heavy.Count)
	}
	if heavy.P99 < heavy.Median || heavy.Max < heavy.P99 {
		t.Errorf("percentiles disordered: %+v", heavy)
	}
	if heavy.Makespan != heavy.Max {
		t.Errorf("makespan %v != max %v", heavy.Makespan, heavy.Max)
	}
}

func TestRunWorkloadEmpty(t *testing.T) {
	c := small()
	st := c.RunWorkload(nil, func(uint64) time.Duration { return time.Second })
	if st.Count != 0 || st.Mean != 0 {
		t.Errorf("empty workload stats = %+v", st)
	}
}

func TestMoreCoresShortenMakespan(t *testing.T) {
	// The Figure 7 mechanism: the same task batch completes faster with
	// more cores.
	run := func(cores int) time.Duration {
		c, err := New(Config{Nodes: 1, CoresPerNode: cores, Net: store.GigabitEthernet()})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = uint64(i)
		}
		st := c.RunWorkload(keys, func(uint64) time.Duration { return time.Millisecond })
		return st.Makespan
	}
	m1, m4, m16 := run(1), run(4), run(16)
	if !(m1 > m4 && m4 > m16) {
		t.Errorf("makespans not decreasing with cores: %v, %v, %v", m1, m4, m16)
	}
	// Near-linear speedup at this load: m1/m16 should be close to 16.
	ratio := float64(m1) / float64(m16)
	if ratio < 8 {
		t.Errorf("speedup %v far from linear", ratio)
	}
}
