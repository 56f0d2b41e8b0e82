package main

import (
	"path/filepath"
	"runtime"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/store"
)

// Helpers the four workloads share: the segmented query phase with its
// untraced/traced split, CPU and allocation accounting around it, and the
// answer checks.

const (
	topK = 50
	// querySegments is how many equal segments a query phase is cut into;
	// the first is warm-up, the medians run over the other eleven.
	querySegments = 12
	// checksN is the size of the identity-and-recall probe set.
	checksN = 200
)

// queryOps is one workload's query operation in its two forms. plain is
// the call a user makes; traced does the same work with spans around each
// layer boundary. Both report whether the answer arrived without error or
// degradation flag.
type queryOps struct {
	plain  func(caller, seq int) bool
	traced func(caller, seq int) bool
}

// phaseCost is CPU and allocator work over a phase.
type phaseCost struct {
	cpu    time.Duration
	mem    runtime.MemStats
	before runtime.MemStats
}

func startCost() (c phaseCost) {
	runtime.ReadMemStats(&c.before)
	c.cpu = cpuTime()
	return c
}

func (c *phaseCost) stop() {
	c.cpu = cpuTime() - c.cpu
	runtime.ReadMemStats(&c.mem)
}

// closedQueryPhase is the last timed phase of the closed-loop workloads:
// callers issue queries back to back for what is left of the window. An
// untraced run spends the whole budget with the tracer off and sets the
// end-to-end latency, rate, SLO and CPU metrics. A traced run spends the
// first half the same way and the second half with spans on; the ratio of
// the two rates is the tracing overhead.
func (r *run) closedQueryPhase(ops queryOps) {
	r.setupDone()
	budget := r.queryBudget()
	if !r.trace {
		runtime.GC()
		cost := startCost()
		samples, start := closedLoop(r.callers, budget, ops.plain)
		cost.stop()
		r.timed += budget
		ps := summarize(samples, budget, querySegments, false)
		r.setQueryMetrics(ps, cost, start, budget, ps.Attempted-ps.Failed)
		return
	}
	half := budget / 2
	runtime.GC()
	cost := startCost()
	plain, start := closedLoop(r.callers, half, ops.plain)
	r.tr.on.Store(true)
	traced, _ := closedLoop(r.callers, half, ops.traced)
	r.tr.on.Store(false)
	cost.stop()
	r.timed += budget
	pp := summarize(plain, half, querySegments/2, false)
	pt := summarize(traced, half, querySegments/2, false)
	r.setQueryMetrics(pp, cost, start, budget, 0)
	r.count("query", pt.Attempted, pt.Failed)
	r.setHarnessLayers(pp, cost, pp.Attempted+pt.Attempted)
	if pp.PerSec > 0 {
		r.set("trace.overhead_ratio", pt.PerSec/pp.PerSec)
	} else {
		r.set("trace.overhead_ratio", 0)
	}
}

// setQueryMetrics records the end-to-end figures of a query phase that
// started at start and ran for dur. done is how many completed operations
// the phase's CPU bought; a traced run passes 0 and reports no CPU figure,
// because half of its phase paid for spans.
func (r *run) setQueryMetrics(ps phaseStats, cost phaseCost, start time.Time, dur time.Duration, done int) {
	r.count("query", ps.Attempted, ps.Failed)
	r.set("query_p50_ms", ps.P50ms)
	r.set("query_p95_ms", ps.P95ms)
	r.set("query_qps", ps.PerSec)
	r.set("slo_ok_ratio", ps.SLOOK)
	if done > 0 {
		r.set("cpu_ms_per_op", float64(cost.cpu)/float64(time.Millisecond)/float64(done))
	}
	r.info["query_phase_s"] = dur.Seconds()
	r.info["query_segments"] = float64(ps.Segments)
	r.info["query_segment_spread"] = ps.Spread
	r.segments = map[string][]float64{"query_p50_ms": ps.SegP50ms, "query_qps": ps.SegPerSec}
	r.info["host_kernel_us"] = r.host.kernelUS(start, start.Add(dur))
}

// setHarnessLayers records the traced run's harness-side figures: tail
// latencies that are the host's scheduler as much as the program, the
// within-run spread, and allocator work per operation.
func (r *run) setHarnessLayers(ps phaseStats, cost phaseCost, ops int) {
	r.set("query.p99_ms", ps.P99ms)
	r.set("query.max_ms", ps.MaxMs)
	r.set("loadgen.segment_spread", ps.Spread)
	r.set("host.kernel_us", r.info["host_kernel_us"])
	if _, ok := r.metrics["loadgen.late_p95_ms"]; !ok {
		r.set("loadgen.late_p95_ms", 0) // closed loops have no schedule to be late on
	}
	if ops < 1 {
		ops = 1
	}
	r.set("runtime.alloc_bytes_per_op", float64(cost.mem.TotalAlloc-cost.before.TotalAlloc)/float64(ops))
	r.set("runtime.allocs_per_op", float64(cost.mem.Mallocs-cost.before.Mallocs)/float64(ops))
	r.set("runtime.gc_cycles", float64(cost.mem.NumGC-cost.before.NumGC))
	r.set("runtime.gc_pause_ms", float64(cost.mem.PauseTotalNs-cost.before.PauseTotalNs)/1e6)
}

// segmentRates cuts the per-operation latencies of a fixed-work write phase
// into nseg equal runs by count, drops the first as warm-up, and returns each
// remaining run's rate (operations per second of summed latency) and median
// latency.
func segmentRates(lats []time.Duration, nseg int) (perSec, p50ms []float64) {
	per := len(lats) / nseg
	if per < 1 {
		return nil, nil
	}
	for s := 1; s < nseg; s++ {
		seg := lats[s*per : (s+1)*per]
		var total time.Duration
		ms := make([]float64, len(seg))
		for i, d := range seg {
			total += d
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		perSec = append(perSec, float64(len(seg))/total.Seconds())
		p50ms = append(p50ms, median(ms))
	}
	return perSec, p50ms
}

// countedRates is the median over segmentRates' segments.
func countedRates(lats []time.Duration, nseg int) (perSec, p50ms float64) {
	rates, p50s := segmentRates(lats, nseg)
	return median(rates), median(p50s)
}

// snapshotRounds is how many snapshots an in-process write-side phase
// takes; the first writes every chunk and is warm-up, the rest are deltas
// after churn.
const snapshotRounds = 13

// newGenerations is the snapshot store every workload persists into: fastd's
// chunked store with its default geometry, two generations kept.
func newGenerations(dir, name string) *store.Generations {
	return &store.Generations{Path: filepath.Join(dir, name), Chunked: true, Keep: 2}
}

// snapshotPhase takes snapshotRounds snapshots of eng, calling churn before
// each so every write after the first is a delta of a mutated index. It
// returns the p50 write time without the first round and the last result.
func snapshotPhase(eng *core.Engine, g *store.Generations, churn func(round int) error) (p50ms float64, last store.WriteResult, err error) {
	var durs []time.Duration
	for round := 0; round < snapshotRounds; round++ {
		if err := churn(round); err != nil {
			return 0, last, err
		}
		t0 := time.Now()
		last, err = g.WriteSnapshot(eng)
		if err != nil {
			return 0, last, err
		}
		durs = append(durs, time.Since(t0))
	}
	return medianOfDurationsMs(dropFirst(durs)), last, nil
}

func sameResults(a, b []core.SearchResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// truth is the scene ground truth of the live corpus.
type truth struct {
	sceneOf  map[uint64]simimg.SceneID
	perScene map[simimg.SceneID]int
}

func newTruth() *truth {
	return &truth{sceneOf: map[uint64]simimg.SceneID{}, perScene: map[simimg.SceneID]int{}}
}

func (t *truth) add(ps ...*simimg.Photo) {
	for _, p := range ps {
		t.sceneOf[p.ID] = p.Scene
		t.perScene[p.Scene]++
	}
}

func (t *truth) remove(id uint64) {
	if sc, ok := t.sceneOf[id]; ok {
		delete(t.sceneOf, id)
		t.perScene[sc]--
	}
}

// recall is |top-K ∩ relevant| ÷ min(K, |relevant|) for one answer, the
// relevant set being the live photos of the probe's scene.
func (t *truth) recall(res []core.SearchResult, scene simimg.SceneID) float64 {
	want := t.perScene[scene]
	if want > topK {
		want = topK
	}
	if want == 0 {
		return 1
	}
	hit := 0
	for _, r := range res {
		if sc, ok := t.sceneOf[r.ID]; ok && sc == scene {
			hit++
		}
	}
	return float64(hit) / float64(want)
}

// checkAnswers re-asks the check probes after the system is quiesced:
// every answer must be byte-identical to the oracle's, and the answers
// also give recall_at_k. A mismatch or an error is a failed operation.
func (r *run) checkAnswers(checks []probe, t *truth,
	ask func(p probe) ([]core.SearchResult, error),
	oracle func(p probe) ([]core.SearchResult, error)) {
	failed := 0
	var sum float64
	for _, p := range checks {
		got, err := ask(p)
		if err != nil {
			failed++
			continue
		}
		want, err := oracle(p)
		if err != nil || !sameResults(got, want) {
			failed++
		}
		sum += t.recall(got, p.scene)
	}
	r.count("identity_check", len(checks), failed)
	r.set("recall_at_k", sum/float64(len(checks)))
}
