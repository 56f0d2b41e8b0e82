// Package cluster simulates the paper's evaluation testbed: a 256-node
// cluster where every node has a 32-core CPU, 64 GB of RAM, a 7200RPM disk
// and a Gigabit NIC. The simulator is a deterministic queueing model: each
// node owns per-core availability timelines, a task submitted to a node is
// scheduled on the earliest-free core, and cross-node interactions charge
// network transfer time. Experiment harnesses express work as service
// durations (computed from operation counts and the store/disk models) and
// read back completion times, so cluster-scale latencies are reproduced
// without wall-clock cost.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"github.com/fastrepro/fast/internal/placement"
	"github.com/fastrepro/fast/internal/store"
)

// Config describes the simulated cluster.
type Config struct {
	Nodes        int // number of nodes; 0 means 256 (paper)
	CoresPerNode int // cores per node; 0 means 32 (paper)
	Net          store.NetworkModel
	Disk         store.DiskModel
	// PlacementVNodes / PlacementSeed parameterize the consistent-hash
	// ring keys are routed by (internal/placement — the same ring the real
	// router and shards use, so simulated and real placement cannot
	// drift). Zero values take the placement defaults.
	PlacementVNodes int
	PlacementSeed   uint64
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 256
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 32
	}
	if c.Net == (store.NetworkModel{}) {
		c.Net = store.GigabitEthernet()
	}
	if c.Disk == (store.DiskModel{}) {
		c.Disk = store.HDD7200()
	}
	return c
}

// Node is one simulated machine.
type Node struct {
	ID    int
	cores []time.Duration // next-free time per core
	busy  time.Duration   // total busy time accumulated
	tasks int
}

// Cluster is the simulated machine room.
type Cluster struct {
	cfg   Config
	nodes []*Node
	ring  *placement.Ring
}

// New builds a cluster. It returns an error for non-positive sizes.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 || cfg.CoresPerNode < 1 {
		return nil, fmt.Errorf("cluster: invalid config %+v", cfg)
	}
	ring, err := placement.New(placement.Config{
		Shards: cfg.Nodes,
		VNodes: cfg.PlacementVNodes,
		Seed:   cfg.PlacementSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{cfg: cfg, ring: ring}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &Node{ID: i, cores: make([]time.Duration, cfg.CoresPerNode)})
	}
	return c, nil
}

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Disk returns the per-node disk model.
func (c *Cluster) Disk() store.DiskModel { return c.cfg.Disk }

// Net returns the interconnect model.
func (c *Cluster) Net() store.NetworkModel { return c.cfg.Net }

// Submit schedules a task needing service time on the given node, arriving
// at the given simulated time. It returns the task's completion time. The
// task runs on the earliest-available core (FCFS per node).
func (c *Cluster) Submit(node int, arrival, service time.Duration) (time.Duration, error) {
	if node < 0 || node >= len(c.nodes) {
		return 0, fmt.Errorf("cluster: node %d out of range [0, %d)", node, len(c.nodes))
	}
	if service < 0 {
		return 0, fmt.Errorf("cluster: negative service time %v", service)
	}
	n := c.nodes[node]
	// Earliest-free core.
	best := 0
	for i := 1; i < len(n.cores); i++ {
		if n.cores[i] < n.cores[best] {
			best = i
		}
	}
	start := n.cores[best]
	if arrival > start {
		start = arrival
	}
	done := start + service
	n.cores[best] = done
	n.busy += service
	n.tasks++
	return done, nil
}

// Route maps an item key to its owning node (the dataset is "randomly
// distributed among the nodes" in the paper). Routing delegates to the
// shared consistent-hash ring so the simulator exercises exactly the
// placement the real router and shards use.
func (c *Cluster) Route(key uint64) int {
	return c.ring.Owner(key)
}

// Ring exposes the cluster's placement ring, so harnesses can assert the
// simulated assignment matches a real tier built from the same config.
func (c *Cluster) Ring() *placement.Ring { return c.ring }

// Broadcast schedules the same service on every node at the given arrival
// and returns the time the slowest node finishes plus one network round
// trip (scatter/gather aggregation).
func (c *Cluster) Broadcast(arrival, service time.Duration) (time.Duration, error) {
	var maxDone time.Duration
	for i := range c.nodes {
		done, err := c.Submit(i, arrival, service)
		if err != nil {
			return 0, err
		}
		if done > maxDone {
			maxDone = done
		}
	}
	return maxDone + c.cfg.Net.RTT, nil
}

// Utilization returns the mean busy fraction across nodes at the horizon of
// the latest completion.
func (c *Cluster) Utilization() float64 {
	var horizon time.Duration
	for _, n := range c.nodes {
		for _, t := range n.cores {
			if t > horizon {
				horizon = t
			}
		}
	}
	if horizon == 0 {
		return 0
	}
	var busy time.Duration
	for _, n := range c.nodes {
		busy += n.busy
	}
	capacity := horizon * time.Duration(len(c.nodes)*c.cfg.CoresPerNode)
	return float64(busy) / float64(capacity)
}

// TaskCount returns the number of tasks scheduled so far.
func (c *Cluster) TaskCount() int {
	total := 0
	for _, n := range c.nodes {
		total += n.tasks
	}
	return total
}

// Reset clears all node timelines.
func (c *Cluster) Reset() {
	for _, n := range c.nodes {
		for i := range n.cores {
			n.cores[i] = 0
		}
		n.busy = 0
		n.tasks = 0
	}
}

// RunWorkload schedules a batch of independent tasks (key → service time)
// arriving simultaneously at time zero, routing each by key, and returns
// latency statistics over the batch. This models Figure 4's "N simultaneous
// requests" experiments.
func (c *Cluster) RunWorkload(keys []uint64, service func(key uint64) time.Duration) WorkloadStats {
	lat := make([]time.Duration, 0, len(keys))
	for _, k := range keys {
		node := c.Route(k)
		done, err := c.Submit(node, 0, service(k))
		if err != nil {
			continue
		}
		// One network round trip to deliver the request and the response.
		lat = append(lat, done+c.cfg.Net.RTT)
	}
	return summarize(lat)
}

// WorkloadStats aggregates completion latencies.
type WorkloadStats struct {
	Count    int
	Mean     time.Duration
	Median   time.Duration
	P99      time.Duration
	Max      time.Duration
	Makespan time.Duration // completion time of the last task
}

func summarize(lat []time.Duration) WorkloadStats {
	var st WorkloadStats
	st.Count = len(lat)
	if st.Count == 0 {
		return st
	}
	sorted := make([]time.Duration, len(lat))
	copy(sorted, lat)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, l := range sorted {
		sum += l
	}
	st.Mean = sum / time.Duration(st.Count)
	st.Median = sorted[st.Count/2]
	p99 := st.Count * 99 / 100
	if p99 >= st.Count {
		p99 = st.Count - 1
	}
	st.P99 = sorted[p99]
	st.Max = sorted[st.Count-1]
	st.Makespan = st.Max
	return st
}
